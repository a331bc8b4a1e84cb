"""The latency predictor used by the predictive search (paper Alg. 1).

The predictor replaces online profiling: given a wave-group partition it
estimates the overlapped latency from two offline-profiled quantities --
the GEMM duration (turned into a per-wave time under SM contention) and the
sampled communication bandwidth curve.  It deliberately ignores the
second-order effects the ground-truth executor models (per-group launch
overheads, signal polling, jitter), which is what produces the small positive
bias of the actual latency over the prediction reported in Fig. 15.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.comm.bandwidth import (
    AnalyticBandwidthCurve,
    SampledBandwidthCurve,
    default_sample_sizes,
    sample_bandwidth,
)
from repro.comm.primitives import CollectiveModel
from repro.comm.topology import Topology
from repro.core.config import DEFAULT_SETTINGS, MAX_EXHAUSTIVE_WAVES, OverlapProblem, OverlapSettings
from repro.core.wave_grouping import (
    PartitionMatrix,
    WavePartition,
    candidate_partitions_matrix,
    pruned_partition_matrix,
)


# ---------------------------------------------------------------------------
# Offline-profile memoization
# ---------------------------------------------------------------------------
#
# The offline stage is deterministic in (problem, settings): the sampled
# bandwidth curve depends only on (topology, sample density, noise, seed) and
# the GEMM-side quantities only on the problem definition.  Both are therefore
# memoized at process level, so repeated tuner calls -- a sweep worker
# executing many jobs, the shape-cache warm-start path re-tuning near misses,
# a benchmark re-ranking candidates -- rebuild neither the curve nor the
# profile.  The pruned candidate matrix depends only on (wave count, first
# and last group bounds), so every search of one wave count shares one
# read-only copy; the heuristic family of larger wave counts is built per
# search, since its T x T matrices would dwarf the memo.
# ``clear_profile_caches`` exists for benchmarks that want to time the cold
# path.


@lru_cache(maxsize=256)
def cached_sampled_curve(
    topology: Topology, points_per_decade: int, noise: float, seed: int
) -> SampledBandwidthCurve:
    """Sampled bandwidth curve keyed by (topology, sampling settings)."""
    analytic = AnalyticBandwidthCurve.for_topology(topology)
    curve = sample_bandwidth(
        analytic,
        default_sample_sizes(points_per_decade=points_per_decade),
        noise=noise,
        seed=seed,
    )
    # Shared across profiles: guard against accidental in-place edits.
    curve.sizes_bytes.setflags(write=False)
    curve.bandwidths_bytes.setflags(write=False)
    return curve


@lru_cache(maxsize=MAX_EXHAUSTIVE_WAVES)
def cached_pruned_matrix(
    num_waves: int, max_first_group: int, max_last_group: int
) -> PartitionMatrix:
    """Read-only :func:`pruned_partition_matrix`, one per (waves, bounds) key."""
    matrix = pruned_partition_matrix(num_waves, max_first_group, max_last_group)
    matrix.sizes.setflags(write=False)
    matrix.counts.setflags(write=False)
    return matrix


def profile_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the process-level offline-profile caches."""
    profile = OfflineProfile.cached.cache_info()
    curve = cached_sampled_curve.cache_info()
    return {
        "profile_hits": profile.hits,
        "profile_misses": profile.misses,
        "profile_size": profile.currsize,
        "curve_hits": curve.hits,
        "curve_misses": curve.misses,
        "curve_size": curve.currsize,
    }


def clear_profile_caches() -> None:
    """Drop memoized offline profiles, sampled curves and pruned candidate matrices."""
    OfflineProfile.cached.cache_clear()
    cached_sampled_curve.cache_clear()
    cached_pruned_matrix.cache_clear()


@dataclass(frozen=True)
class OfflineProfile:
    """Everything the predictor knows, gathered at deployment time.

    * ``num_waves`` -- wave count of the GEMM under SM contention
      (``tile_num / (sm_num - comm_sm_num)``, Alg. 1 line 3),
    * ``wave_time`` -- duration of one wave of the contended GEMM,
    * ``wave_bytes`` -- output bytes produced by one full wave,
    * ``comm_model`` -- collective latency model backed by the *sampled*
      bandwidth curve (offline profiling of Fig. 8),
    * ``sequential_compute_time`` -- GEMM duration *without* SM contention
      (the non-overlapped execution does not reserve SMs for communication),
    * ``imbalance`` -- workload skew of the slowest rank (1.0 = balanced).
    """

    num_waves: int
    wave_time: float
    wave_bytes: float
    comm_model: CollectiveModel
    sequential_compute_time: float
    imbalance: float = 1.0

    @classmethod
    def build(
        cls, problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
    ) -> "OfflineProfile":
        """Run the offline stage for a problem (Alg. 1 lines 1-5)."""
        compute_sms = problem.compute_sm_count()
        gemm = problem.gemm_model()
        num_waves = gemm.num_waves(compute_sms)
        wave_time = gemm.wave_duration(compute_sms)
        wave_bytes = gemm.wave_size(compute_sms) * problem.tile_config().tile_bytes(
            problem.dtype_bytes
        )
        sampled = cached_sampled_curve(
            problem.topology,
            settings.bandwidth_samples_per_decade,
            settings.bandwidth_profile_noise,
            settings.seed,
        )
        comm_model = problem.collective_model().with_curve(sampled)
        return cls(
            num_waves=num_waves,
            wave_time=wave_time,
            wave_bytes=wave_bytes,
            comm_model=comm_model,
            sequential_compute_time=gemm.duration(include_launch=False),
            imbalance=problem.imbalance,
        )

    @classmethod
    @lru_cache(maxsize=1024)
    def cached(
        cls, problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
    ) -> "OfflineProfile":
        """Memoized :meth:`build`, shared across tuner calls within a process.

        The cache key is the full problem definition (device, topology,
        collective, GEMM shape/config, dtype, imbalance) plus the settings;
        the sampled bandwidth curve underneath is additionally shared across
        *all* shapes of the same (topology, sampling settings) bucket.  The
        profile is frozen and only ever read, so sharing one instance across
        callers -- including sweep jobs running in the same worker process --
        is safe.
        """
        return cls.build(problem, settings)


class LatencyPredictor:
    """Analytical latency prediction of an overlapped execution (Alg. 1).

    ``total_bytes`` is the payload the collective must move: the problem's
    output, which the last group's partial wave trims from full waves.
    """

    def __init__(self, profile: OfflineProfile, total_bytes: float) -> None:
        self.profile = profile
        self._total_bytes = total_bytes

    def predict(self, partition: WavePartition) -> float:
        """Predicted total latency of one overlapped execution."""
        return float(self.predict_batch([partition])[0])

    def predict_batch(
        self, partitions: Sequence[WavePartition] | PartitionMatrix
    ) -> np.ndarray:
        """Predicted latency of every candidate partition in one vectorized pass.

        Candidates are encoded as a padded :class:`PartitionMatrix` (zero-size
        padding groups contribute zero compute and zero payload, so they leave
        each candidate's timeline untouched).  Every row covers the same ``T``
        waves, so a group's compute time and collective latency depend only on
        its size: both are priced once per size ``0..T`` and gathered by
        ``matrix.sizes``.  Every arithmetic step runs in the order a per-group
        scalar accumulation would -- same interpolation, same serialization
        recurrence -- so each latency is bit-identical to evaluating its
        candidate alone.
        """
        matrix = (
            partitions
            if isinstance(partitions, PartitionMatrix)
            else candidate_partitions_matrix(list(partitions))
        )
        if matrix.num_candidates == 0:
            return np.empty(0, dtype=np.float64)
        waves = self.profile.num_waves
        total_waves = matrix.total_waves
        if not np.all(total_waves == waves):
            bad = int(total_waves[total_waves != waves][0])
            raise ValueError(f"partition covers {bad} waves, but the profile has {waves}")
        group_sizes = np.arange(waves + 1, dtype=np.float64)
        imbalance = self.profile.imbalance
        # Row g of ``comm`` and ``compute_end`` is group slot g of every candidate.
        slots = matrix.sizes.T

        # Per-group payloads: full waves, overflow absorbed by the last group.
        # Sizes and wave_bytes are integer-valued, so every row's payloads sum
        # to exactly T full waves in any summation order: the overflow is one
        # scalar, and a clipped last group reads a second table row.
        raw = group_sizes * self.profile.wave_bytes
        overflow = raw[waves] - self._total_bytes
        payloads = np.stack((raw, np.maximum(0.0, raw - max(overflow, 0.0))))
        full, clipped = self.profile.comm_model.latency_array(payloads * imbalance)
        comm = full[slots]
        if overflow > 0:
            rows, last = np.arange(matrix.num_candidates), matrix.counts - 1
            comm[last, rows] = clipped[matrix.sizes[rows, last]]

        compute_end = (group_sizes * self.profile.wave_time * imbalance)[slots]
        np.cumsum(compute_end, axis=0, out=compute_end)

        # Group i communicates once the GEMM has finished its waves and group
        # i-1's collective has drained (one communication stream): one short
        # loop over group slots, vectorized over candidates.
        previous_end = np.zeros(matrix.num_candidates, dtype=np.float64)
        for group_end, group_comm in zip(compute_end, comm):
            np.maximum(group_end, previous_end, out=previous_end)
            previous_end += group_comm
        return previous_end

    def predict_non_overlap(self) -> float:
        """Predicted latency of the sequential (non-overlapped) execution.

        The sequential path does not reserve SMs for communication, so its
        compute term is the uncontended GEMM duration.
        """
        compute = self.profile.sequential_compute_time * self.profile.imbalance
        comm = self.profile.comm_model.latency(self._total_bytes * self.profile.imbalance)
        return compute + comm
