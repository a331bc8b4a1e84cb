"""Cross-layer plan store: tuned overlap plans shared by serving and e2e.

:class:`~repro.plans.cache.PlanCache` started life inside the serving layer;
it now lives here so the end-to-end estimator (:mod:`repro.e2e`) can reuse
the same shape-keyed store -- identical layers and repeated layers of a
model are tuned exactly once, with hit/miss stats.
"""

from repro.plans.cache import PlanCache

__all__ = [
    "PlanCache",
]
