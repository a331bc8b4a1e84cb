"""Equivalence suite: the vectorized predictor vs the group-by-group oracle.

The contract is strict: ``predict_batch`` must be *bit-identical* to the
scalar timeline of ``oracles.predictor`` per candidate (not merely allclose),
so that the tuner's argmin picks exactly the partition the scalar loop of
``oracles.tuner.predictive_reference`` would.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oracles.predictor import predict_reference
from oracles.tuner import predictive_reference
from oracles.wave_grouping import candidate_partitions
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.predictor import (
    LatencyPredictor,
    OfflineProfile,
    clear_profile_caches,
    profile_cache_info,
)
from repro.core.tuner import PredictiveTuner
from repro.core.wave_grouping import WavePartition, candidate_partitions_matrix
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape


def _problem(shape: GemmShape, collective=CollectiveKind.ALL_REDUCE, **kwargs) -> OverlapProblem:
    return OverlapProblem(
        shape=shape,
        device=RTX_4090,
        topology=rtx4090_pcie(4),
        collective=collective,
        **kwargs,
    )


def assert_batch_matches_scalar(problem: OverlapProblem, settings: OverlapSettings) -> None:
    profile = OfflineProfile.build(problem, settings)
    predictor = LatencyPredictor(profile, total_bytes=problem.output_bytes())
    matrix = PredictiveTuner(settings).candidates(profile.num_waves)
    candidates = [matrix.partition(row) for row in range(matrix.num_candidates)]
    batch = predictor.predict_batch(matrix)
    scalar = np.array([predict_reference(predictor, p) for p in candidates])
    np.testing.assert_array_equal(batch, scalar)
    np.testing.assert_array_equal([predictor.predict(p) for p in candidates], scalar)


class TestPredictBatchEquivalence:
    def test_matches_scalar_for_every_candidate(self, paper_problem_4090, fast_settings):
        assert_batch_matches_scalar(paper_problem_4090, fast_settings)

    def test_matches_with_profiling_noise_and_imbalance(self):
        problem = _problem(GemmShape(2048, 4096, 4096), imbalance=1.25)
        settings = OverlapSettings(bandwidth_profile_noise=0.05, seed=7)
        assert_batch_matches_scalar(problem, settings)

    def test_matches_for_small_problem(self, small_problem, fast_settings):
        assert_batch_matches_scalar(small_problem, fast_settings)

    @pytest.mark.parametrize("collective", list(CollectiveKind))
    def test_matches_across_collectives(self, collective, fast_settings):
        assert_batch_matches_scalar(_problem(GemmShape(1024, 2048, 1024), collective), fast_settings)

    @hyp_settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=48).map(lambda x: x * 64),
        n=st.integers(min_value=1, max_value=48).map(lambda x: x * 64),
        k=st.sampled_from([256, 1024, 4096]),
        max_first=st.integers(min_value=1, max_value=3),
        max_last=st.integers(min_value=1, max_value=5),
        noise=st.sampled_from([0.0, 0.015, 0.08]),
        imbalance=st.sampled_from([1.0, 1.1, 1.4]),
    )
    def test_matches_over_random_shapes_and_settings(
        self, m, n, k, max_first, max_last, noise, imbalance
    ):
        problem = _problem(GemmShape(m, n, k), imbalance=imbalance)
        settings = OverlapSettings(
            max_first_group=max_first,
            max_last_group=max_last,
            bandwidth_profile_noise=noise,
            executor_jitter=0.0,
        )
        assert_batch_matches_scalar(problem, settings)

    def test_accepts_partition_matrix_input(self, paper_problem_4090, fast_settings):
        profile = OfflineProfile.build(paper_problem_4090, fast_settings)
        predictor = LatencyPredictor(profile, total_bytes=paper_problem_4090.output_bytes())
        candidates = candidate_partitions(profile.num_waves, 2, 4, 14)
        matrix = candidate_partitions_matrix(candidates)
        np.testing.assert_array_equal(
            predictor.predict_batch(matrix), predictor.predict_batch(candidates)
        )

    def test_rejects_wave_count_mismatch(self, paper_problem_4090, fast_settings):
        profile = OfflineProfile.build(paper_problem_4090, fast_settings)
        predictor = LatencyPredictor(profile, total_bytes=paper_problem_4090.output_bytes())
        with pytest.raises(ValueError, match="waves"):
            predictor.predict_batch([WavePartition.single_group(profile.num_waves + 1)])

    def test_empty_batch(self, paper_problem_4090, fast_settings):
        profile = OfflineProfile.build(paper_problem_4090, fast_settings)
        predictor = LatencyPredictor(profile, total_bytes=paper_problem_4090.output_bytes())
        assert predictor.predict_batch([]).size == 0


class TestHeuristicFamilyEquivalence:
    """Problems of 15-600 waves, where the tuner ranks the heuristic family."""

    @pytest.mark.parametrize(
        "shape,collective,imbalance,noise,waves",
        [
            (GemmShape(4096, 8192, 4096), CollectiveKind.ALL_REDUCE, 1.2, 0.05, 17),
            (GemmShape(5000, 7000, 1024), CollectiveKind.REDUCE_SCATTER, 1.0, 0.015, 18),
            (GemmShape(12288, 12288, 1024), CollectiveKind.ALL_TO_ALL, 1.3, 0.08, 75),
            (GemmShape(16384, 16384, 256), CollectiveKind.ALL_REDUCE, 1.1, 0.0, 133),
            (GemmShape(32768, 16384, 128), CollectiveKind.REDUCE_SCATTER, 1.25, 0.015, 265),
            (GemmShape(38400, 31700, 64), CollectiveKind.ALL_REDUCE, 1.05, 0.05, 600),
        ],
        ids=["17-waves", "18-waves", "75-waves", "133-waves", "265-waves", "600-waves"],
    )
    def test_matches_the_oracles(self, shape, collective, imbalance, noise, waves):
        problem = _problem(shape, collective, imbalance=imbalance)
        settings = OverlapSettings(bandwidth_profile_noise=noise, seed=5)
        profile = OfflineProfile.build(problem, settings)
        assert profile.num_waves == waves
        # The last group absorbs the overflow of full waves past the output.
        assert waves * profile.wave_bytes > problem.output_bytes()
        assert_batch_matches_scalar(problem, settings)
        assert PredictiveTuner(settings).tune(problem) == predictive_reference(problem, settings)

    def test_output_an_exact_multiple_of_the_wave_bytes(self):
        # 124 x 40 tiles of 128 x 128 on 124 compute SMs: 40 full waves, no overflow.
        problem = _problem(GemmShape(15872, 5120, 256), imbalance=1.15)
        settings = OverlapSettings(bandwidth_profile_noise=0.03, seed=2)
        profile = OfflineProfile.build(problem, settings)
        assert profile.num_waves == 40
        assert problem.output_bytes() == 40 * profile.wave_bytes
        assert_batch_matches_scalar(problem, settings)
        assert PredictiveTuner(settings).tune(problem) == predictive_reference(problem, settings)


class TestPartitionMatrix:
    def test_round_trip_and_padding(self):
        partitions = [
            WavePartition((1, 2, 3)),
            WavePartition((6,)),
            WavePartition((2, 2, 1, 1)),
        ]
        matrix = candidate_partitions_matrix(partitions)
        assert matrix.num_candidates == 3
        assert matrix.max_groups == 4
        assert list(matrix.counts) == [3, 1, 4]
        assert list(matrix.total_waves) == [6, 6, 6]
        np.testing.assert_array_equal(matrix.sizes[0], [1, 2, 3, 0])
        for index, partition in enumerate(partitions):
            assert matrix.partition(index) == partition

    def test_empty(self):
        matrix = candidate_partitions_matrix([])
        assert matrix.num_candidates == 0


class TestTunerFastPath:
    def test_vectorized_tuner_identical_to_scalar(self, paper_problem_4090):
        for settings in (
            OverlapSettings(),
            OverlapSettings(bandwidth_profile_noise=0.0, executor_jitter=0.0),
            OverlapSettings(max_first_group=1, max_last_group=2),
        ):
            fast = PredictiveTuner(settings).tune(paper_problem_4090)
            reference = predictive_reference(paper_problem_4090, settings)
            assert fast == reference

    def test_sequential_fallback_agrees(self, tiny_device, tiny_topology, small_tile_config):
        # A shape/topology pair where overlap may or may not pay off; both
        # paths must agree on the use_overlap verdict either way.
        problem = OverlapProblem(
            shape=GemmShape(m=32, n=48, k=64),
            device=tiny_device,
            topology=tiny_topology,
            collective=CollectiveKind.ALL_REDUCE,
            gemm_config=small_tile_config,
        )
        settings = OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)
        fast = PredictiveTuner(settings).tune(problem)
        reference = predictive_reference(problem, settings)
        assert fast == reference

    def test_fourteen_wave_tune_decodes_only_the_winner(self, monkeypatch):
        # 1,664 tiles in 14 waves: the pruned space keeps 5,760 of 8,192
        # compositions, and only the winning row becomes a WavePartition.
        problem = _problem(GemmShape(3328, 8192, 4096))
        built = []
        post_init = WavePartition.__post_init__

        def counting(partition):
            built.append(partition.group_sizes)
            post_init(partition)

        monkeypatch.setattr(WavePartition, "__post_init__", counting)
        result = PredictiveTuner().tune(problem)
        assert result.partition.num_waves == 14
        assert result.candidates_evaluated == 5760
        assert built == [result.partition.group_sizes]

    def test_ties_go_to_the_oracles_first_candidate(self, monkeypatch, paper_problem_4090):
        settings = OverlapSettings()
        monkeypatch.setattr(
            LatencyPredictor, "predict_batch", lambda self, matrix: np.zeros(matrix.num_candidates)
        )
        result = PredictiveTuner(settings).tune(paper_problem_4090)
        waves = OfflineProfile.cached(paper_problem_4090, settings).num_waves
        oracle = candidate_partitions(
            waves, settings.max_first_group, settings.max_last_group, settings.max_exhaustive_waves
        )
        assert len(oracle) > 1
        assert result.partition == oracle[0]
        assert result.predicted_latency == 0.0


class TestProfileMemoization:
    def test_cached_returns_shared_instance(self, paper_problem_4090, fast_settings):
        clear_profile_caches()
        first = OfflineProfile.cached(paper_problem_4090, fast_settings)
        second = OfflineProfile.cached(paper_problem_4090, fast_settings)
        assert first is second
        info = profile_cache_info()
        assert info["profile_hits"] >= 1 and info["profile_misses"] >= 1

    def test_cached_equals_build(self, paper_problem_4090, fast_settings):
        clear_profile_caches()
        cached = OfflineProfile.cached(paper_problem_4090, fast_settings)
        built = OfflineProfile.build(paper_problem_4090, fast_settings)
        assert cached.num_waves == built.num_waves
        assert cached.wave_time == built.wave_time
        assert cached.wave_bytes == built.wave_bytes
        assert cached.sequential_compute_time == built.sequential_compute_time
        np.testing.assert_array_equal(
            cached.comm_model.curve.bandwidths_bytes, built.comm_model.curve.bandwidths_bytes
        )

    def test_curve_shared_across_shapes(self, fast_settings):
        clear_profile_caches()
        a = OfflineProfile.cached(_problem(GemmShape(1024, 2048, 1024)), fast_settings)
        b = OfflineProfile.cached(_problem(GemmShape(2048, 2048, 1024)), fast_settings)
        assert a is not b
        assert a.comm_model.curve is b.comm_model.curve

    def test_settings_distinguish_entries(self, paper_problem_4090):
        clear_profile_caches()
        quiet = OfflineProfile.cached(paper_problem_4090, OverlapSettings(bandwidth_profile_noise=0.0))
        noisy = OfflineProfile.cached(paper_problem_4090, OverlapSettings(bandwidth_profile_noise=0.1))
        assert quiet is not noisy
