"""Equivalence suite: the incremental exhaustive tuner vs per-candidate simulation
(``oracles.tuner.exhaustive_reference``), and the exhaustive tuner's
sequential-fallback decision."""

import math

import pytest

from oracles.tuner import exhaustive_reference
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import InterconnectKind, Topology, rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.tuner import ExhaustiveTuner
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape


@pytest.fixture
def problem(paper_problem_4090):
    return paper_problem_4090


class TestIncrementalExhaustive:
    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_identical_to_naive(self, problem, jitter):
        settings = OverlapSettings(executor_jitter=jitter)
        incremental = ExhaustiveTuner(settings).tune(problem)
        naive = exhaustive_reference(problem, settings)
        assert incremental == naive

    def test_latency_matches_full_simulation(self, problem, fast_settings):
        result = ExhaustiveTuner(fast_settings).tune(problem)
        executor = OverlapExecutor(problem, fast_settings)
        assert executor.simulate(result.partition).latency == result.predicted_latency

    def test_identical_on_small_problem(self, small_problem, fast_settings):
        incremental = ExhaustiveTuner(fast_settings).tune(small_problem)
        naive = exhaustive_reference(small_problem, fast_settings)
        assert incremental == naive

    @pytest.mark.parametrize("imbalance", [1.0, 1.3])
    def test_identical_under_imbalance(self, imbalance, fast_settings):
        problem = OverlapProblem(
            shape=GemmShape(1024, 2048, 1024),
            device=RTX_4090,
            topology=rtx4090_pcie(4),
            collective=CollectiveKind.REDUCE_SCATTER,
            imbalance=imbalance,
        )
        incremental = ExhaustiveTuner(fast_settings).tune(problem)
        naive = exhaustive_reference(problem, fast_settings)
        assert incremental == naive


class TestExhaustiveSequentialFallback:
    def test_use_overlap_compares_against_sequential(self, problem, fast_settings):
        result = ExhaustiveTuner(fast_settings).tune(problem)
        sequential = OverlapExecutor(problem, fast_settings).simulate_sequential().latency
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

    def test_overlap_kept_when_it_wins(self, problem, fast_settings):
        result = ExhaustiveTuner(fast_settings).tune(problem)
        assert result.use_overlap
        assert math.isfinite(result.predicted_latency)
