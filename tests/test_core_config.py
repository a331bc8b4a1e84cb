"""Tests for OverlapProblem / OverlapSettings (repro.core.config)."""

from dataclasses import replace

import pytest

from repro.comm.primitives import CollectiveKind
from repro.core.config import (
    DEFAULT_SETTINGS,
    MAX_BANDWIDTH_SAMPLES_PER_DECADE,
    MAX_EXHAUSTIVE_WAVES,
    OverlapProblem,
    OverlapSettings,
)
from repro.gpu.gemm import GemmShape


class TestOverlapProblem:
    def test_derived_models(self, small_problem):
        assert small_problem.n_gpus == 4
        gemm = small_problem.gemm_model()
        assert gemm.num_tiles == 24
        comm = small_problem.collective_model()
        assert comm.kind is CollectiveKind.ALL_REDUCE
        assert small_problem.output_bytes() == 32 * 48 * 2

    def test_compute_sm_count_reserves_comm_sms(self, small_problem):
        assert small_problem.compute_sm_count() == (
            small_problem.device.sm_count - small_problem.topology.comm_sm_count
        )

    def test_compute_sm_count_never_zero(self, small_problem, tiny_device):
        topo = small_problem.topology
        crowded = OverlapProblem(
            shape=small_problem.shape,
            device=replace(tiny_device, sm_count=2),
            topology=topo,
            collective=CollectiveKind.ALL_REDUCE,
        )
        assert crowded.compute_sm_count() >= 1

    def test_with_collective_and_shape(self, small_problem):
        rs = small_problem.with_collective(CollectiveKind.REDUCE_SCATTER)
        assert rs.collective is CollectiveKind.REDUCE_SCATTER
        assert rs.shape == small_problem.shape
        resized = small_problem.with_shape(GemmShape(64, 48, 64))
        assert resized.shape.m == 64
        assert resized.collective is small_problem.collective

    def test_imbalance_validation(self, small_problem, tiny_device, tiny_topology):
        with pytest.raises(ValueError):
            OverlapProblem(
                shape=GemmShape(8, 8, 8),
                device=tiny_device,
                topology=tiny_topology,
                collective=CollectiveKind.ALL_TO_ALL,
                imbalance=0.5,
            )

    @pytest.mark.parametrize("imbalance", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_imbalance_rejected(self, small_problem, imbalance):
        with pytest.raises(ValueError, match="imbalance must be finite and >= 1.0"):
            OverlapProblem(
                shape=small_problem.shape,
                device=small_problem.device,
                topology=small_problem.topology,
                collective=CollectiveKind.ALL_REDUCE,
                imbalance=imbalance,
            )

    def test_describe_mentions_primitive_and_device(self, small_problem):
        text = small_problem.describe()
        assert "AR" in text and "tiny-gpu" in text


class TestOverlapSettings:
    def test_paper_defaults(self):
        assert DEFAULT_SETTINGS.max_first_group == 2
        assert DEFAULT_SETTINGS.max_last_group == 4

    def test_unit_conversions(self):
        settings = OverlapSettings(signal_poll_us=2.0, comm_launch_us=10.0)
        assert settings.signal_poll_s == pytest.approx(2e-6)
        assert settings.comm_launch_s == pytest.approx(1e-5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_first_group": 0},
            {"max_last_group": 0},
            {"max_exhaustive_waves": 0},
            {"max_exhaustive_waves": 17},
            {"max_exhaustive_waves": 40},
            {"bandwidth_samples_per_decade": -5},
            {"bandwidth_samples_per_decade": 0},
            {"bandwidth_samples_per_decade": 1001},
            {"signal_poll_us": -1.0},
            {"comm_launch_us": -1.0},
            {"signal_poll_us": float("nan")},
            {"signal_poll_us": float("inf")},
            {"comm_launch_us": float("nan")},
            {"comm_launch_us": float("inf")},
            {"executor_jitter": float("nan")},
            {"executor_jitter": float("inf")},
            {"bandwidth_profile_noise": float("nan")},
            {"bandwidth_profile_noise": float("-inf")},
        ],
    )
    def test_invalid_settings(self, kwargs):
        with pytest.raises(ValueError):
            OverlapSettings(**kwargs)

    def test_search_and_sampling_bounds_are_inclusive(self):
        assert MAX_EXHAUSTIVE_WAVES >= DEFAULT_SETTINGS.max_exhaustive_waves
        OverlapSettings(max_exhaustive_waves=1, bandwidth_samples_per_decade=1)
        OverlapSettings(
            max_exhaustive_waves=MAX_EXHAUSTIVE_WAVES,
            bandwidth_samples_per_decade=MAX_BANDWIDTH_SAMPLES_PER_DECADE,
        )
