"""Online serving simulation: request traffic, continuous batching, plan cache.

The serving layer turns the one-shot overlap operator into a traffic-facing
system:

* :mod:`repro.serve.arrivals` -- seeded Poisson and trace-driven request
  generators with named prompt/output length distributions;
* :mod:`repro.serve.scheduler` -- Orca/vLLM-style continuous batching with
  chunked prefill, emitting the per-iteration GEMM shapes;
* :class:`~repro.plans.cache.PlanCache` (re-exported here) -- LRU cache of
  tuned :class:`~repro.core.tuner.TuningResult` plans (with
  :class:`~repro.core.tuner.GemmShapeCache` warm start) so repeated shapes
  skip the tuner; the simulator looks up one shape per token bucket
  (:func:`~repro.plans.cache.bucket_tokens`);
* :mod:`repro.serve.simulator` -- the event-driven serving loop on
  :class:`~repro.sim.engine.EventEngine`, executing overlap plans or the
  non-overlap baseline per iteration;
* :mod:`repro.serve.metrics` -- TTFT/TPOT/e2e percentiles, throughput and
  goodput under an SLO.
"""

from repro.plans.cache import PlanCache, bucket_tokens
from repro.serve.arrivals import (
    PoissonArrivals,
    TraceArrivals,
    distribution_by_name,
    length_distributions,
)
from repro.serve.metrics import SLO
from repro.serve.scheduler import profile_iteration_tokens
from repro.serve.simulator import ServeConfig, ServingSimulator

__all__ = [
    "PoissonArrivals",
    "TraceArrivals",
    "distribution_by_name",
    "length_distributions",
    "profile_iteration_tokens",
    "PlanCache",
    "bucket_tokens",
    "SLO",
    "ServeConfig",
    "ServingSimulator",
]
