"""Tests for the predictive / exhaustive tuners and the shape cache."""

import math

import pytest

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import InterconnectKind, Topology
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.tuner import (
    ExhaustiveTuner,
    GemmShapeCache,
    PredictiveTuner,
    search_quality,
)
from repro.core.wave_grouping import WavePartition
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape


@pytest.fixture
def settings():
    return OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


class TestPredictiveTuner:
    def test_tuned_partition_is_valid(self, paper_problem_4090, settings):
        tuner = PredictiveTuner(settings)
        result = tuner.tune(paper_problem_4090)
        executor = OverlapExecutor(paper_problem_4090, settings)
        assert result.partition.num_waves == executor.num_waves()
        assert result.candidates_evaluated > 1
        assert result.predicted_latency > 0
        assert result.method == "predictive"

    def test_tuned_beats_naive_partitions(self, paper_problem_4090, settings):
        from repro.core.wave_grouping import WavePartition

        tuner = PredictiveTuner(settings)
        result = tuner.tune(paper_problem_4090)
        executor = OverlapExecutor(paper_problem_4090, settings)
        tuned = executor.simulate(result.partition).latency
        single = executor.simulate(WavePartition.single_group(executor.num_waves())).latency
        assert tuned <= single * 1.001

    def test_overlap_enabled_on_comm_heavy_problem(self, paper_problem_4090, settings):
        assert PredictiveTuner(settings).tune(paper_problem_4090).use_overlap

    def test_candidates_respect_bounds_for_small_waves(self, settings):
        matrix = PredictiveTuner(settings).candidates(10)
        candidates = [matrix.partition(row) for row in range(matrix.num_candidates)]
        assert all(p.group_sizes[0] <= settings.max_first_group for p in candidates)
        assert all(p.group_sizes[-1] <= settings.max_last_group for p in candidates)


class TestExhaustiveTuner:
    def test_exhaustive_not_worse_than_predictive(self, paper_problem_4090, settings):
        executor = OverlapExecutor(paper_problem_4090, settings)
        predictive = PredictiveTuner(settings).tune(paper_problem_4090)
        exhaustive = ExhaustiveTuner(settings).tune(paper_problem_4090, executor)
        predictive_actual = executor.simulate(predictive.partition).latency
        assert exhaustive.predicted_latency <= predictive_actual + 1e-12
        assert exhaustive.method == "exhaustive"

    def test_latency_matches_fresh_simulation(self, paper_problem_4090, fast_settings):
        result = ExhaustiveTuner(fast_settings).tune(paper_problem_4090)
        executor = OverlapExecutor(paper_problem_4090, fast_settings)
        assert executor.simulate(result.partition).latency == result.predicted_latency

    def test_ties_go_to_the_first_candidate(self, paper_problem_4090, settings):
        executor = OverlapExecutor(paper_problem_4090, settings)
        single = executor.simulate(WavePartition.single_group(executor.num_waves()))
        executor.simulate = lambda partition: single
        candidates = PredictiveTuner(settings).candidates(executor.num_waves())
        result = ExhaustiveTuner(settings).tune(paper_problem_4090, executor)
        assert result.partition == candidates.partition(0)
        assert result.predicted_latency == single.latency
        assert result.candidates_evaluated == candidates.num_candidates > 1

    def test_search_quality_claim_c2(self, paper_problem_4090, settings):
        # Claim C2: the predictive search reaches >99% of the exhaustive
        # search's performance.
        quality = search_quality(paper_problem_4090, settings)
        assert quality["performance_ratio"] > 0.97
        assert quality["predictive_latency"] >= quality["exhaustive_latency"]


class TestExhaustiveSequentialFallback:
    def test_use_overlap_compares_against_sequential(self, paper_problem_4090, fast_settings):
        result = ExhaustiveTuner(fast_settings).tune(paper_problem_4090)
        sequential = OverlapExecutor(paper_problem_4090, fast_settings).simulate_sequential().latency
        assert result.use_overlap == (result.predicted_latency <= sequential)

    def test_fallback_when_overlap_cannot_win(self, fast_settings):
        # A pathological interconnect: gigantic per-call setup cost and huge
        # SM tax, so splitting the collective into per-group calls can only
        # lose against the single sequential call.
        topology = Topology(
            name="slow-setup",
            n_gpus=4,
            kind=InterconnectKind.PCIE,
            peak_bus_bandwidth_gbps=600.0,
            base_latency_us=50_000.0,
            half_saturation_mb=0.01,
            comm_sm_count=100,
            supports_p2p=False,
        )
        problem = OverlapProblem(
            shape=GemmShape(4096, 4096, 256),
            device=RTX_4090,
            topology=topology,
            collective=CollectiveKind.ALL_REDUCE,
        )
        result = ExhaustiveTuner(fast_settings).tune(problem)
        sequential = OverlapExecutor(problem, fast_settings).simulate_sequential().latency
        assert result.predicted_latency > sequential
        assert not result.use_overlap

    def test_overlap_kept_when_it_wins(self, paper_problem_4090, fast_settings):
        result = ExhaustiveTuner(fast_settings).tune(paper_problem_4090)
        assert result.use_overlap
        assert math.isfinite(result.predicted_latency)


class TestShapeCache:
    def test_cache_reuses_nearby_shape(self, paper_problem_4090, settings):
        cache = GemmShapeCache()
        tuner = PredictiveTuner(settings)
        first = cache.lookup_or_tune(paper_problem_4090, tuner)
        assert len(cache) == 1
        # A shape within the distance threshold and with the same wave count
        # reuses the cached partition without re-tuning.
        similar = paper_problem_4090.with_shape(GemmShape(2048, 8192, 7680))
        second = cache.lookup_or_tune(similar, tuner)
        assert second is first
        assert len(cache) == 1

    def test_cache_retunes_distant_shape(self, paper_problem_4090, settings):
        cache = GemmShapeCache()
        tuner = PredictiveTuner(settings)
        cache.lookup_or_tune(paper_problem_4090, tuner)
        far = paper_problem_4090.with_shape(GemmShape(16384, 8192, 2048))
        cache.lookup_or_tune(far, tuner)
        assert len(cache) == 2

    def test_nearest_respects_wave_count(self, paper_problem_4090, settings):
        cache = GemmShapeCache()
        tuner = PredictiveTuner(settings)
        result = tuner.tune(paper_problem_4090)
        cache.add(paper_problem_4090.shape, result)
        assert cache.nearest(paper_problem_4090.shape, required_waves=result.partition.num_waves)
        assert cache.nearest(paper_problem_4090.shape, required_waves=3) is None

    def test_empty_cache(self, paper_problem_4090):
        assert GemmShapeCache().nearest(paper_problem_4090.shape, required_waves=1) is None
