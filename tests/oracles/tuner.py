"""Per-candidate tuning loop behind the predictive tuner.

:class:`repro.core.tuner.PredictiveTuner` ranks its candidate matrix in one
``predict_batch`` pass.  This oracle takes its candidates from the
enumerate-and-filter list of ``oracles.wave_grouping``, ranks them one at a
time on the scalar predictor timeline and keeps the first strict minimum, so
the tuner can be asserted to return identical results by an independent
route.
"""

from __future__ import annotations

import math

from oracles.predictor import predict_reference
from oracles.wave_grouping import candidate_partitions
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.predictor import LatencyPredictor, OfflineProfile
from repro.core.tuner import TuningResult


def predictive_reference(
    problem: OverlapProblem,
    settings: OverlapSettings = DEFAULT_SETTINGS,
    profile: OfflineProfile | None = None,
) -> TuningResult:
    """:meth:`PredictiveTuner.tune`, one scalar prediction per candidate."""
    profile = profile or OfflineProfile.cached(problem, settings)
    predictor = LatencyPredictor(profile, total_bytes=problem.output_bytes())
    candidates = candidate_partitions(
        profile.num_waves,
        settings.max_first_group,
        settings.max_last_group,
        settings.max_exhaustive_waves,
    )
    best, best_latency = None, math.inf
    for partition in candidates:
        latency = predict_reference(predictor, partition)
        if latency < best_latency:
            best, best_latency = partition, latency
    return TuningResult(
        partition=best,
        predicted_latency=best_latency,
        candidates_evaluated=len(candidates),
        method="predictive",
        use_overlap=bool(best_latency <= predictor.predict_non_overlap()),
    )
