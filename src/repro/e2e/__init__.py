"""End-to-end model estimation (the paper's Table 4 / Fig. 12 at scale).

The operator-level machinery tunes and simulates one "GEMM + collective"
instance; this package chains it across every operator of a full transformer
stack:

* :mod:`repro.e2e.estimator` -- resolves each distinct operator shape once
  through a shared exact-shape :class:`~repro.plans.PlanCache` (cross-layer
  and cross-model plan reuse, with hit/miss stats), then runs the full
  stream back to back into whole-model latencies and an exportable timeline
  trace;
* :mod:`repro.e2e.report` -- aggregates several workloads into the
  Table-4-style comparison (non-overlap vs FlashOverlap vs perfect-overlap
  bound, per-operator and Fig. 4 pattern breakdowns).

Wired into the CLI as ``repro e2e``.
"""

from repro.e2e.estimator import EndToEndEstimator
from repro.e2e.report import estimate_models

__all__ = [
    "EndToEndEstimator",
    "estimate_models",
]
