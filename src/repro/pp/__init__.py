"""Pipeline-parallel scheduling on top of the overlap cost model.

The paper prices overlap for a single rank's operator stream; its Table-4
workloads run under pipeline parallelism in practice, where inter-stage
*bubbles* -- not just intra-operator communication exposure -- dominate step
time.  This package adds that axis:

* :mod:`repro.pp.schedule` -- microbatch schedules over a stage partition:
  GPipe (all-forward / all-backward with activation recomputation), 1F1B
  (PipeDream-flush warmup/steady/cooldown) and a zero-bubble schedule that
  splits the backward pass into input-gradient (B) and weight-gradient (W)
  cells and fills pipeline bubbles with deferred W work (ZB-H1-style);
* :mod:`repro.pp.pricing` -- per-stage forward/dgrad/wgrad cell costs, every
  operator priced through the shared plan store
  (:class:`~repro.plans.PlanCache`) exactly as ``repro e2e`` prices it, plus
  the inter-stage P2P transfer model;
* :mod:`repro.pp.estimator` -- times each schedule (the generators
  list-schedule every cell as they place it) under non-overlap /
  FlashOverlap / perfect-overlap pricing and reports per-stage timelines,
  bubble ratios and step latencies;
* :mod:`repro.pp.report` -- multi-workload aggregation, tables and the
  JSON/Chrome-trace exports behind ``repro pp``.
"""

from repro.pp.estimator import PipelineEstimator
from repro.pp.report import estimate_pipelines

__all__ = [
    "PipelineEstimator",
    "estimate_pipelines",
]
