"""Tests for the ground-truth overlap executor (repro.core.executor)."""

from dataclasses import replace

import numpy as np
import pytest

from oracles.wave_grouping import from_decisions
from repro.comm.primitives import CollectiveKind
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


def _on(trace, stream):
    return [span for span in trace.spans if span.stream == stream]


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
        partition = from_decisions(
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
        (gemm,) = _on(result.trace, COMPUTE_STREAM)
        comm = _on(result.trace, COMM_STREAM)
        # Fig. 8's head (before the first collective) and overlapped time.
        head = min(span.start for span in comm)
        overlapped = sum(
            max(0.0, min(gemm.end, span.end) - max(gemm.start, span.start)) for span in comm
        )
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


def _compute_bound_problem():
    """Tiny communication next to a long GEMM: every wave's collective
    drains before the next wave completes."""
    from repro.comm.primitives import CollectiveKind
    from repro.comm.topology import a800_nvlink
    from repro.core.config import OverlapProblem
    from repro.gpu.device import A800
    from repro.gpu.gemm import GemmShape

    return OverlapProblem(
        shape=GemmShape(4096, 4096, 16384),
        device=A800,
        topology=a800_nvlink(2),
        collective=CollectiveKind.REDUCE_SCATTER,
    )


class TestCommStream:
    """The executor's two streams: one GEMM on ``compute``, the per-group
    collectives serialized on ``comm`` by the recurrence
    ``start = max(previous end, ready + comm_launch_s)``."""

    @pytest.mark.parametrize("collective", list(CollectiveKind), ids=lambda k: k.name)
    def test_comm_start_is_the_one_stream_recurrence(
        self, paper_problem_4090, fast_settings, collective
    ):
        executor = OverlapExecutor(replace(paper_problem_4090, collective=collective), fast_settings)
        launch = fast_settings.comm_launch_s
        waves = executor.num_waves()
        for partition in (
            WavePartition.per_wave(waves),
            WavePartition.equal_groups(waves, 2),
            WavePartition.single_group(waves),
        ):
            result = executor.simulate(partition)
            start, end = result.group_comm_start, result.group_comm_end
            ready = result.group_compute_ready
            assert start[0] == ready[0] + launch
            for group in range(1, partition.num_groups):
                assert start[group] == max(end[group - 1], ready[group] + launch)
            assert np.all(end > start)
            comm = _on(result.trace, COMM_STREAM)
            assert [span.name for span in comm] == [
                f"{collective.short_name}-G{group + 1}" for group in range(partition.num_groups)
            ]
            assert [(span.start, span.end) for span in comm] == list(zip(start, end))

    def test_busy_comm_stream_delays_the_next_group(self, executor):
        # Per-wave groups of this communication-bound problem queue up: a
        # group whose signal fired while its predecessor was still on the
        # wire starts exactly when that predecessor ends.
        result = executor.simulate(WavePartition.per_wave(executor.num_waves()))
        start, end = result.group_comm_start, result.group_comm_end
        launched = result.group_compute_ready + executor.settings.comm_launch_s
        queued = [g for g in range(1, result.num_groups) if end[g - 1] > launched[g]]
        assert queued
        for group in queued:
            assert start[group] == end[group - 1]

    def test_idle_comm_stream_starts_at_the_signal(self, fast_settings):
        executor = OverlapExecutor(_compute_bound_problem(), fast_settings)
        result = executor.simulate(WavePartition.per_wave(executor.num_waves()))
        launched = result.group_compute_ready + fast_settings.comm_launch_s
        assert result.group_comm_start.tolist() == launched.tolist()
        assert np.all(result.group_comm_end[:-1] < launched[1:])

    def test_comm_launch_overhead_delays_an_idle_stream(self, small_problem, fast_settings):
        partition = WavePartition.single_group(4)
        base = OverlapExecutor(small_problem, fast_settings).simulate(partition)
        slow_settings = replace(fast_settings, comm_launch_us=fast_settings.comm_launch_us + 10.0)
        slow = OverlapExecutor(small_problem, slow_settings).simulate(partition)
        assert slow.group_compute_ready.tolist() == base.group_compute_ready.tolist()
        assert slow.group_comm_start[0] - base.group_comm_start[0] == pytest.approx(1e-5)
        assert slow.latency - base.latency == pytest.approx(1e-5)

    def test_group_signals_when_its_last_wave_completes(self, small_executor, small_problem):
        wave_end = (
            small_executor.gemm_contended.wave_completion_times(small_executor.compute_sms)
            * small_problem.imbalance
            + small_problem.device.kernel_launch_seconds
        )
        poll = small_executor.settings.signal_poll_s
        for sizes in ((1, 1, 1, 1), (1, 3), (2, 2), (4,)):
            result = small_executor.simulate(WavePartition(sizes))
            last_waves = np.cumsum(sizes) - 1
            assert result.group_compute_ready == pytest.approx(wave_end[last_waves] + poll)

    def test_gemm_span_is_independent_of_the_partition(self, executor):
        waves = executor.num_waves()
        gemm_spans = set()
        for partition in (WavePartition.per_wave(waves), WavePartition.single_group(waves)):
            result = executor.simulate(partition)
            (gemm,) = _on(result.trace, COMPUTE_STREAM)
            assert gemm.start == 0.0 and gemm.category is KernelCategory.GEMM
            assert gemm.end == pytest.approx(
                result.group_compute_ready[-1] - executor.settings.signal_poll_s
            )
            gemm_spans.add((gemm.name, gemm.end))
        assert len(gemm_spans) == 1

    def test_sequential_comm_waits_for_the_whole_gemm(self, executor):
        result = executor.simulate_sequential()
        (gemm,) = _on(result.trace, COMPUTE_STREAM)
        (comm,) = _on(result.trace, COMM_STREAM)
        assert result.group_compute_ready.tolist() == [gemm.end]
        assert comm.start == gemm.end + executor.settings.comm_launch_s
        assert comm.end == result.latency == result.trace.makespan()
        assert result.partition == WavePartition.single_group(
            executor.problem.gemm_model().num_waves()
        )
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
        assert any(span.category is KernelCategory.COMMUNICATION for span in result.trace.spans)


def _spans(result):
    return [(s.stream, s.name, s.start, s.end, s.category) for s in result.trace.spans]


class TestPinnedTrace:
    """Exact spans of ``small_problem`` under the default settings (jitter on).

    Every float is compared with ``==``: a change to the order or kind of
    float operations in the executor's timeline shows up here.
    """

    GEMM = ("compute", "gemm[32x48x64]", 0.0, 5.573439999999999e-06, KernelCategory.GEMM)

    @pytest.fixture
    def pinned_executor(self, small_problem):
        return OverlapExecutor(small_problem)

    def test_per_wave(self, pinned_executor):
        result = pinned_executor.simulate(WavePartition.per_wave(4))
        assert _spans(result) == [
            self.GEMM,
            ("comm", "AR-G1", 1.614336e-05, 8.98604043704262e-05, KernelCategory.COMMUNICATION),
            ("comm", "AR-G2", 8.98604043704262e-05, 0.00016304965108816116,
             KernelCategory.COMMUNICATION),
            ("comm", "AR-G3", 0.00016304965108816116, 0.00023560538583444014,
             KernelCategory.COMMUNICATION),
            ("comm", "AR-G4", 0.00023560538583444014, 0.00030891328603615707,
             KernelCategory.COMMUNICATION),
        ]
        assert result.latency == 0.00030891328603615707

    def test_equal_groups(self, pinned_executor):
        result = pinned_executor.simulate(WavePartition.equal_groups(4, 2))
        assert _spans(result) == [
            self.GEMM,
            ("comm", "AR-G1", 1.628672e-05, 8.984409523712609e-05, KernelCategory.COMMUNICATION),
            ("comm", "AR-G2", 8.984409523712609e-05, 0.00016390288926349238,
             KernelCategory.COMMUNICATION),
        ]
        assert result.latency == 0.00016390288926349238

    def test_single_group(self, pinned_executor):
        result = pinned_executor.simulate(WavePartition.single_group(4))
        assert _spans(result) == [
            self.GEMM,
            ("comm", "AR-G1", 1.657344e-05, 9.043787103478541e-05, KernelCategory.COMMUNICATION),
        ]
        assert result.latency == 9.043787103478541e-05

    def test_sequential(self, pinned_executor):
        result = pinned_executor.simulate_sequential()
        assert _spans(result) == [
            ("compute", "gemm[sequential]", 0.0, 5.430079999999999e-06, KernelCategory.GEMM),
            ("comm", "AR-full", 1.3430079999999999e-05, 8.631967999999999e-05,
             KernelCategory.COMMUNICATION),
        ]
        assert result.latency == 8.631967999999999e-05
