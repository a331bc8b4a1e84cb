"""Tests for the event-driven executor oracle (``oracles.event_executor``) and
the analytic executor's cross-check against it."""

import numpy as np
import pytest

from oracles.event_executor import EventDrivenExecutor
from repro.core.executor import COMM_STREAM, OverlapExecutor
from repro.core.wave_grouping import WavePartition
from repro.gpu.kernels import KernelCategory


@pytest.fixture
def executor(paper_problem_4090, fast_settings):
    return EventDrivenExecutor(paper_problem_4090, fast_settings)


class TestEventDrivenSimulation:
    def test_result_structure(self, executor):
        partition = WavePartition.equal_groups(executor.num_waves(), 3)
        result = executor.simulate(partition)
        assert result.metadata["event_driven"] is True
        assert result.metadata["events_processed"] > executor.analytic.gemm_contended.num_tiles
        assert result.latency > 0
        assert len(result.group_comm_end) == partition.num_groups

    def test_causality(self, executor):
        partition = WavePartition.per_wave(executor.num_waves())
        result = executor.simulate(partition)
        assert np.all(result.group_comm_start >= result.group_compute_ready)
        assert np.all(np.diff(result.group_comm_end) > 0)

    def test_signal_markers_recorded(self, executor):
        partition = WavePartition.equal_groups(executor.num_waves(), 4)
        result = executor.simulate(partition)
        signals = [s for s in result.trace.spans if s.category is KernelCategory.SIGNAL]
        assert len(signals) == partition.num_groups
        comm = [s for s in result.trace.spans
                if s.stream == COMM_STREAM and s.category is KernelCategory.COMMUNICATION]
        assert len(comm) == partition.num_groups

    def test_tile_recording_optional(self, small_problem, fast_settings):
        executor = EventDrivenExecutor(small_problem, fast_settings)
        partition = WavePartition.per_wave(executor.num_waves())
        with_tiles = executor.simulate(partition, record_tiles=True)
        without = executor.simulate(partition, record_tiles=False)
        assert len(with_tiles.trace.spans) > len(without.trace.spans)
        tile_spans = [s for s in with_tiles.trace.spans if s.name.startswith("tile-")]
        assert len(tile_spans) == executor.analytic.gemm_contended.num_tiles

    def test_wave_count_mismatch_rejected(self, executor):
        with pytest.raises(ValueError):
            executor.simulate(WavePartition((1, 1)))


class TestCrossCheck:
    @pytest.mark.parametrize("group_size", [1, 2, 4, 8])
    def test_matches_analytic_executor(self, executor, group_size):
        partition = WavePartition.equal_groups(executor.num_waves(), group_size)
        check = executor.cross_check(partition)
        assert check["within_tolerance"] == 1.0
        assert check["relative_latency_gap"] < 1e-9
        assert check["max_comm_start_gap"] < 1e-12

    def test_matches_on_small_problem(self, small_problem, fast_settings):
        executor = EventDrivenExecutor(small_problem, fast_settings)
        analytic = OverlapExecutor(small_problem, fast_settings)
        for sizes in ((1, 1, 1, 1), (2, 2), (1, 3), (4,)):
            partition = WavePartition(sizes)
            event = executor.simulate(partition).latency
            direct = analytic.simulate(partition).latency
            assert event == pytest.approx(direct, rel=1e-9)

    def test_matches_with_jitter_enabled(self, paper_problem_4090):
        from repro.core.config import OverlapSettings

        settings = OverlapSettings(executor_jitter=0.03)
        executor = EventDrivenExecutor(paper_problem_4090, settings)
        partition = WavePartition.equal_groups(executor.num_waves(), 2)
        check = executor.cross_check(partition)
        assert check["within_tolerance"] == 1.0
