"""Ground-truth overlap executor (the simulated "real run").

Where :class:`~repro.core.predictor.LatencyPredictor` is the cheap analytical
model used by the tuner, :class:`OverlapExecutor` is the reproduction's
stand-in for actually running the kernels.  It derives wave completion times
and per-wave output bytes (in closed form, without the launch order) from
the GEMM model under SM contention.  A wave's tiles finish together and
waves finish in order, so under the signaling rule a group's collective is
released when the group's last wave ends, and its payload is the bytes of
its wave range: both are read from one memoized per-wave table.  Every
group's collective is priced in one vectorized call; the collectives are
serialized on a second stream by a max/plus recurrence with their launch and
polling overheads, and a small deterministic jitter stands in for
measurement noise.  The stream-order check runs on the start and end columns,
and a result's :class:`~repro.sim.trace.Trace` is built only when read:
pricing reads the latency alone.  The executor is what every benchmark
measures and what the exhaustive search ranks candidates with.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.comm.primitives import CollectiveModel
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.signaling import GroupAssignment
from repro.core.wave_grouping import WavePartition
from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Trace, check_stream_order

COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"


@dataclass(frozen=True)
class OverlapResult:
    """Outcome of one simulated overlapped execution.

    :attr:`trace` is made by ``build_trace`` on its first read.
    """

    latency: float
    partition: WavePartition
    group_compute_ready: np.ndarray
    group_comm_start: np.ndarray
    group_comm_end: np.ndarray
    build_trace: Callable[[], Trace] = field(repr=False)
    metadata: dict = field(default_factory=dict)

    @property
    def num_groups(self) -> int:
        return len(self.partition.group_sizes)

    @cached_property
    def trace(self) -> Trace:
        """The execution's timeline, built on first read."""
        return self.build_trace()


class OverlapExecutor:
    """Simulate FlashOverlap (and its sequential counterpart) for one problem."""

    def __init__(
        self, problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
    ) -> None:
        self.problem = problem
        self.settings = settings
        self.compute_sms = problem.compute_sm_count()
        self.gemm_contended = problem.gemm_model()
        self.comm_model: CollectiveModel = problem.collective_model()
        self._wave_tiles: list[list[int]] | None = None
        self._waves: tuple[np.ndarray, np.ndarray] | None = None

    # -- basic quantities -----------------------------------------------------

    def num_waves(self) -> int:
        """Wave count of the GEMM under SM contention."""
        return self.gemm_contended.num_waves(self.compute_sms)

    def wave_tiles(self) -> list[list[int]]:
        """Per-wave tile lists (memoized: the swizzled execution order is
        identical for every candidate an exhaustive search simulates)."""
        if self._wave_tiles is None:
            self._wave_tiles = self.gemm_contended.wave_tiles(self.compute_sms)
        return self._wave_tiles

    def assignment(self, partition: WavePartition) -> GroupAssignment:
        return GroupAssignment.build(partition, self.wave_tiles())

    def _wave_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(wave_end, byte_prefix)``, memoized like :meth:`wave_tiles`.

        ``wave_end[w]`` is when wave ``w`` of the contended GEMM completes,
        launch included; ``byte_prefix[w]`` is the output bytes of waves
        ``0..w-1`` (``byte_prefix[0] == 0``).
        """
        if self._waves is None:
            wave_end = (
                self.gemm_contended.wave_completion_times(self.compute_sms)
                * self.problem.imbalance
                + self.problem.device.kernel_launch_seconds
            )
            wave_bytes = self.gemm_contended.wave_bytes(self.compute_sms)
            self._waves = (wave_end, np.concatenate([[0], np.cumsum(wave_bytes)]))
        return self._waves

    def group_payload_bytes(self, partition: WavePartition) -> np.ndarray:
        """Exact bytes communicated per group (edge tiles included)."""
        _, byte_prefix = self._wave_table()
        ends = np.cumsum(partition.group_sizes)
        starts = ends - partition.group_sizes
        return (byte_prefix[ends] - byte_prefix[starts]).astype(np.float64)

    def _jitter(self, partition: WavePartition, count: int) -> np.ndarray:
        """Deterministic per-group noise multipliers for this partition."""
        if self.settings.executor_jitter <= 0:
            return np.ones(count)
        key = f"{self.problem.describe()}|{partition.group_sizes}|{self.settings.seed}"
        seed = zlib.crc32(key.encode("utf-8"))
        rng = np.random.default_rng(seed)
        return 1.0 + rng.uniform(0.0, self.settings.executor_jitter, size=count)

    # -- perfect-overlap bound ---------------------------------------------------

    def theoretical_latency(self) -> float:
        """Perfect-overlap lower bound (Sec. 6.4).

        If the GEMM dominates, only the communication of the final wave is
        exposed; if communication dominates, only the first wave of compute is
        exposed.
        """
        compute = self.gemm_contended.duration(include_launch=True) * self.problem.imbalance
        total_bytes = self.problem.output_bytes() * self.problem.imbalance
        comm = self.comm_model.latency(total_bytes)
        waves = max(1, self.num_waves())
        wave_bytes = total_bytes / waves
        contended = self.gemm_contended.duration(self.compute_sms, include_launch=True)
        contended *= self.problem.imbalance
        wave_compute = contended / waves
        if compute >= comm:
            return contended + self.comm_model.latency(wave_bytes)
        return wave_compute + comm

    # -- overlapped execution ------------------------------------------------------

    def simulate(self, partition: WavePartition) -> OverlapResult:
        """Simulate the overlapped execution under a wave-group partition."""
        if partition.num_waves != self.num_waves():
            raise ValueError(
                f"partition covers {partition.num_waves} waves, executor expects "
                f"{self.num_waves()}"
            )
        payloads = self.group_payload_bytes(partition) * self.problem.imbalance
        # A group signals when its last wave, hence its last tile, completes.
        wave_end, _ = self._wave_table()
        ready = wave_end[np.cumsum(partition.group_sizes) - 1] + self.settings.signal_poll_s
        durations = self.comm_model.latency_array(payloads) * self._jitter(
            partition, partition.num_groups
        )

        # One communication stream: a group's collective starts once its
        # signal is polled and launched, and once the previous one drained.
        launched = ready + self.settings.comm_launch_s
        starts, ends = [], []
        end = 0.0
        for group_launched, duration in zip(launched.tolist(), durations.tolist()):
            start = max(end, group_launched)
            end = start + duration
            starts.append(start)
            ends.append(end)
        short_name = self.comm_model.kind.short_name
        names = [f"{short_name}-G{group}" for group in range(1, len(ends) + 1)]
        check_stream_order(COMM_STREAM, names, starts, ends)
        return OverlapResult(
            latency=end,
            partition=partition,
            group_compute_ready=ready,
            group_comm_start=np.array(starts),
            group_comm_end=np.array(ends),
            build_trace=partial(self._overlap_trace, names, starts, ends),
            metadata={
                "payload_bytes": payloads,
                "num_waves": self.num_waves(),
                "compute_sms": self.compute_sms,
            },
        )

    def _overlap_trace(self, names: list[str], starts: list[float], ends: list[float]) -> Trace:
        """:meth:`simulate`'s timeline: the GEMM, then one span per group collective."""
        wave_end, _ = self._wave_table()
        launch = self.problem.device.kernel_launch_seconds
        gemm_body = wave_end[-1] - launch
        shape = self.problem.shape
        trace = Trace()
        trace.record(
            COMPUTE_STREAM, f"gemm[{shape.m}x{shape.n}x{shape.k}]", 0.0, gemm_body + launch,
            KernelCategory.GEMM,
        )
        trace.extend(
            COMM_STREAM, names, starts, ends, [KernelCategory.COMMUNICATION] * len(ends)
        )
        trace.validate_stream_order()
        return trace

    def simulate_sequential(self) -> OverlapResult:
        """Simulate the sequential fallback (GEMM, then one collective call).

        Used when the tuner concludes that overlapping would slow this shape
        down (e.g. tiny communication under heavy SM contention); FlashOverlap
        then simply does not reserve SMs and issues a single NCCL call.
        """
        gemm = self.gemm_contended
        partition = WavePartition.single_group(max(1, gemm.num_waves()))
        launch = self.problem.device.kernel_launch_seconds
        gemm_duration = gemm.duration(include_launch=True) * self.problem.imbalance
        payload = self.problem.output_bytes() * self.problem.imbalance
        comm_duration = self.comm_model.latency(payload)
        comm_start = gemm_duration + self.settings.comm_launch_s
        comm_end = comm_start + comm_duration
        return OverlapResult(
            latency=float(comm_end),
            partition=partition,
            group_compute_ready=np.array([gemm_duration]),
            group_comm_start=np.array([comm_start]),
            group_comm_end=np.array([comm_end]),
            build_trace=partial(self._sequential_trace, gemm_duration, comm_start, comm_end),
            metadata={"sequential_fallback": True, "launch": launch},
        )

    def _sequential_trace(self, gemm_duration: float, comm_start: float, comm_end: float) -> Trace:
        """:meth:`simulate_sequential`'s timeline: the GEMM, then the whole collective."""
        trace = Trace()
        trace.record(COMPUTE_STREAM, "gemm[sequential]", 0.0, gemm_duration, KernelCategory.GEMM)
        trace.record(
            COMM_STREAM, f"{self.comm_model.kind.short_name}-full", comm_start, comm_end,
            KernelCategory.COMMUNICATION,
        )
        return trace
