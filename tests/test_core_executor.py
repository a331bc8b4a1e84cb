"""Tests for the ground-truth overlap executor (repro.core.executor)."""

import numpy as np
import pytest

from repro.core.baselines import NonOverlapBaseline
from repro.core.executor import COMM_STREAM, COMPUTE_STREAM, OverlapExecutor
from repro.core.wave_grouping import WavePartition
from repro.gpu.kernels import KernelCategory


@pytest.fixture
def executor(paper_problem_4090, fast_settings):
    return OverlapExecutor(paper_problem_4090, fast_settings)


@pytest.fixture
def small_executor(small_problem, fast_settings):
    return OverlapExecutor(small_problem, fast_settings)


class TestBasics:
    def test_wave_count_uses_contended_sms(self, executor, paper_problem_4090):
        gemm = paper_problem_4090.gemm_model()
        assert executor.num_waves() == gemm.num_waves(paper_problem_4090.compute_sm_count())

    def test_wave_tiles_cover_all_tiles(self, small_executor):
        tiles = [t for wave in small_executor.wave_tiles() for t in wave]
        assert sorted(tiles) == list(range(small_executor.gemm_contended.num_tiles))

    def test_group_payload_bytes_sum_to_output(self, executor):
        partition = WavePartition.per_wave(executor.num_waves())
        payloads = executor.group_payload_bytes(partition)
        assert payloads.sum() == pytest.approx(executor.problem.output_bytes())

    def test_group_payload_bytes_are_wave_ranges(self, small_executor):
        wave_bytes = small_executor.gemm_contended.wave_bytes(small_executor.compute_sms)
        per_wave = small_executor.group_payload_bytes(
            WavePartition.per_wave(small_executor.num_waves())
        )
        assert per_wave.dtype == np.float64
        assert per_wave.tolist() == wave_bytes.tolist()
        partition = WavePartition.from_decisions(
            [index % 2 == 1 for index in range(small_executor.num_waves() - 1)] + [True]
        )
        ends = np.cumsum(partition.group_sizes)
        assert small_executor.group_payload_bytes(partition).tolist() == [
            wave_bytes[end - size : end].sum() for end, size in zip(ends, partition.group_sizes)
        ]

    def test_wrong_wave_count_rejected(self, executor):
        with pytest.raises(ValueError):
            executor.simulate(WavePartition((1,)))


class TestSimulation:
    def test_result_structure(self, executor):
        partition = WavePartition.per_wave(executor.num_waves())
        result = executor.simulate(partition)
        assert result.latency > 0
        assert result.num_groups == partition.num_groups
        assert len(result.group_comm_end) == partition.num_groups
        assert result.trace.streams() == [COMPUTE_STREAM, COMM_STREAM]

    def test_comm_never_starts_before_its_group_is_ready(self, executor):
        waves = executor.num_waves()
        for partition in (
            WavePartition.per_wave(waves),
            WavePartition.equal_groups(waves, 2),
            WavePartition.equal_groups(waves, 5),
            WavePartition.single_group(waves),
        ):
            result = executor.simulate(partition)
            assert np.all(result.group_comm_start >= result.group_compute_ready)

    def test_comm_spans_serialized_in_group_order(self, executor):
        partition = WavePartition.equal_groups(executor.num_waves(), 2)
        result = executor.simulate(partition)
        assert np.all(np.diff(result.group_comm_end) > 0)
        result.trace.validate_stream_order()

    def test_latency_is_last_comm_end(self, executor):
        partition = WavePartition.equal_groups(executor.num_waves(), 3)
        result = executor.simulate(partition)
        assert result.latency == pytest.approx(result.group_comm_end[-1])
        assert result.latency == pytest.approx(result.trace.makespan())

    def test_overlap_exists_for_multi_group_partition(self, executor):
        partition = WavePartition.equal_groups(executor.num_waves(), 2)
        result = executor.simulate(partition)
        head, overlapped, tail = result.head_overlap_tail()
        assert overlapped > 0
        assert head > 0

    def test_deterministic_without_jitter(self, executor):
        partition = WavePartition.equal_groups(executor.num_waves(), 2)
        assert executor.simulate(partition).latency == executor.simulate(partition).latency

    def test_jitter_changes_latency_slightly(self, paper_problem_4090, fast_settings):
        from dataclasses import replace

        partition = None
        clean = OverlapExecutor(paper_problem_4090, fast_settings)
        noisy = OverlapExecutor(paper_problem_4090, replace(fast_settings, executor_jitter=0.05))
        partition = WavePartition.equal_groups(clean.num_waves(), 2)
        a = clean.simulate(partition).latency
        b = noisy.simulate(partition).latency
        assert a != b
        assert abs(b - a) / a < 0.1

    def test_small_problem_structure_still_valid(self, small_executor):
        partition = WavePartition.per_wave(small_executor.num_waves())
        result = small_executor.simulate(partition)
        assert np.all(result.group_comm_start >= result.group_compute_ready)
        result.trace.validate_stream_order()


def non_overlap(executor):
    return NonOverlapBaseline(executor.settings).latency(executor.problem)


class TestReferenceLatencies:
    def test_non_overlap_exceeds_best_overlap(self, executor):
        partition = WavePartition.equal_groups(executor.num_waves(), 2)
        assert non_overlap(executor) > executor.simulate(partition).latency

    def test_theoretical_bound_is_below_non_overlap(self, executor):
        assert executor.theoretical_latency() < non_overlap(executor)

    def test_overlap_not_much_better_than_theory(self, executor):
        best = min(
            executor.simulate(WavePartition.equal_groups(executor.num_waves(), g)).latency
            for g in (1, 2, 3)
        )
        assert best >= executor.theoretical_latency() * 0.95

    def test_imbalance_slows_everything_down(self, paper_problem_4090, fast_settings):
        from dataclasses import replace

        skewed = replace(paper_problem_4090, imbalance=1.3)
        balanced_exec = OverlapExecutor(paper_problem_4090, fast_settings)
        skewed_exec = OverlapExecutor(skewed, fast_settings)
        partition = WavePartition.equal_groups(balanced_exec.num_waves(), 2)
        assert skewed_exec.simulate(partition).latency > balanced_exec.simulate(partition).latency
        assert non_overlap(skewed_exec) > non_overlap(balanced_exec)

    def test_sequential_fallback_close_to_non_overlap(self, executor):
        result = executor.simulate_sequential()
        assert result.metadata["sequential_fallback"] is True
        assert result.latency == pytest.approx(non_overlap(executor), rel=0.05)
        assert result.trace.by_category(KernelCategory.COMMUNICATION)
