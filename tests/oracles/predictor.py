"""Group-by-group latency prediction: the scalar form of ``predict_batch``.

:meth:`repro.core.predictor.LatencyPredictor.predict_batch` ranks every
candidate partition in one vectorized pass.  These functions evaluate one
partition at a time, group by group, exactly as Alg. 1 states the
recurrence, so the batch path can be asserted bit-identical to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predictor import LatencyPredictor
from repro.core.wave_grouping import WavePartition


@dataclass(frozen=True)
class PredictedTimeline:
    """Per-group predicted schedule."""

    compute_end: np.ndarray
    comm_start: np.ndarray
    comm_end: np.ndarray

    @property
    def latency(self) -> float:
        return float(self.comm_end[-1]) if self.comm_end.size else 0.0


def group_bytes(predictor: LatencyPredictor, partition: WavePartition) -> np.ndarray:
    """Approximate communication payload of each group.

    The predictor assumes full waves; the final group absorbs whatever is
    left of the true output size (the last wave is usually partial).
    """
    sizes = np.array(partition.group_sizes, dtype=np.float64)
    raw = sizes * predictor.profile.wave_bytes
    overflow = raw.sum() - predictor._total_bytes
    if overflow > 0:
        raw[-1] = max(0.0, raw[-1] - overflow)
    return raw


def group_compute_times(predictor: LatencyPredictor, partition: WavePartition) -> np.ndarray:
    sizes = np.array(partition.group_sizes, dtype=np.float64)
    return sizes * predictor.profile.wave_time * predictor.profile.imbalance


def group_comm_times(predictor: LatencyPredictor, partition: WavePartition) -> np.ndarray:
    payloads = group_bytes(predictor, partition) * predictor.profile.imbalance
    return np.array([predictor.profile.comm_model.latency(b) for b in payloads])


def timeline(predictor: LatencyPredictor, partition: WavePartition) -> PredictedTimeline:
    """Accumulate compute and communication latencies group by group.

    Communication of group ``i`` starts once (a) the GEMM has finished all
    waves up to and including group ``i`` and (b) the previous group's
    communication has drained (the collective calls are serialized on the
    communication stream).
    """
    if partition.num_waves != predictor.profile.num_waves:
        raise ValueError(
            f"partition covers {partition.num_waves} waves, but the profile "
            f"has {predictor.profile.num_waves}"
        )
    compute = group_compute_times(predictor, partition)
    comm = group_comm_times(predictor, partition)
    compute_end = np.cumsum(compute)
    comm_start = np.empty_like(comm)
    comm_end = np.empty_like(comm)
    previous_end = 0.0
    for i in range(partition.num_groups):
        comm_start[i] = max(compute_end[i], previous_end)
        comm_end[i] = comm_start[i] + comm[i]
        previous_end = comm_end[i]
    return PredictedTimeline(compute_end=compute_end, comm_start=comm_start, comm_end=comm_end)


def predict_reference(predictor: LatencyPredictor, partition: WavePartition) -> float:
    """Predicted latency of one partition, from its group-by-group timeline."""
    return timeline(predictor, partition).latency
