"""Tile-by-tile event-driven replay of one overlapped execution.

:class:`EventDrivenExecutor` replays the overlapped execution at *tile*
granularity on the discrete-event engine: every tile completion is an event
that increments the counting table; when a wave group completes, its signal
event releases the group's collective on the communication stream, which
serializes behind any collective still in flight.

It models the same semantics as the analytic
:class:`~repro.core.executor.OverlapExecutor` (which accumulates the schedule
with closed-form max/plus arithmetic), so the two must agree to within the
signalling granularity; ``tests/test_core_event_executor.py`` holds the
analytic executor to it.  The per-tile/per-signal trace it records is also
the sample input of the Chrome trace export tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.executor import COMM_STREAM, COMPUTE_STREAM, OverlapExecutor, OverlapResult
from repro.core.signaling import CountingTable
from repro.core.wave_grouping import WavePartition
from repro.gpu.kernels import KernelCategory
from repro.sim.engine import EventEngine
from repro.sim.trace import Trace


@dataclass
class _GroupState:
    """Mutable bookkeeping of one wave group during the event simulation."""

    ready_time: float = float("nan")
    comm_start: float = float("nan")
    comm_end: float = float("nan")


class EventDrivenExecutor:
    """Tile-level event-driven simulation of one overlapped execution."""

    def __init__(
        self, problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
    ) -> None:
        self.problem = problem
        self.settings = settings
        # Reuse the analytic executor for the wave tiles and the jitter; the
        # payload bytes are summed tile by tile here, independently of the
        # executor's per-wave table.
        self.analytic = OverlapExecutor(problem, settings)

    def num_waves(self) -> int:
        return self.analytic.num_waves()

    def simulate(self, partition: WavePartition, record_tiles: bool = False) -> OverlapResult:
        """Run the event-driven simulation for one wave-group partition.

        ``record_tiles=True`` adds one zero-duration span per tile completion
        to the trace (useful for visualisation, costly for large GEMMs).
        """
        if partition.num_waves != self.num_waves():
            raise ValueError(
                f"partition covers {partition.num_waves} waves, executor expects "
                f"{self.num_waves()}"
            )
        assignment = self.analytic.assignment(partition)
        layout = self.analytic.gemm_contended.layout
        payloads = np.array(
            [
                sum(layout.tile_elements(t) for t in tiles) * self.problem.dtype_bytes
                for tiles in assignment.group_tiles
            ],
            dtype=np.float64,
        ) * self.problem.imbalance
        jitter = self.analytic._jitter(partition, partition.num_groups)
        comm_model = self.analytic.comm_model

        launch = self.problem.device.kernel_launch_seconds
        wave_end = (
            self.analytic.gemm_contended.wave_completion_times(self.analytic.compute_sms)
            * self.problem.imbalance
            + launch
        )
        wave_tiles = self.analytic.wave_tiles()

        engine = EventEngine()
        trace = Trace()
        table: CountingTable = assignment.counting_table()
        groups = [_GroupState() for _ in range(partition.num_groups)]
        comm_stream_free = [0.0]

        def start_group_comm(group_index: int) -> None:
            state = groups[group_index]
            start = max(
                comm_stream_free[0],
                state.ready_time + self.settings.comm_launch_s,
            )
            duration = comm_model.latency(payloads[group_index]) * jitter[group_index]
            end = start + duration
            state.comm_start, state.comm_end = start, end
            comm_stream_free[0] = end
            trace.record(
                COMM_STREAM,
                f"{comm_model.kind.short_name}-G{group_index + 1}",
                start,
                end,
                KernelCategory.COMMUNICATION,
            )

        def finish_tile(tile: int, group_index: int, time: float) -> None:
            if record_tiles:
                trace.record(COMPUTE_STREAM, f"tile-{tile}", time, time, KernelCategory.GEMM)
            if table.record_tile(group_index):
                ready = time + self.settings.signal_poll_s
                groups[group_index].ready_time = ready
                trace.record(COMM_STREAM, f"signal-G{group_index + 1}", ready, ready, KernelCategory.SIGNAL)
                engine.schedule(ready, start_group_comm, group_index)

        for wave_index, tiles in enumerate(wave_tiles):
            for tile in tiles:
                group_index = assignment.group_of_tile[tile]
                engine.schedule(wave_end[wave_index], finish_tile, tile, group_index, wave_end[wave_index])
        engine.run()

        trace.record(
            COMPUTE_STREAM,
            f"gemm[{self.problem.shape.m}x{self.problem.shape.n}x{self.problem.shape.k}]",
            0.0,
            float(wave_end[-1]),
            KernelCategory.GEMM,
        )
        ready = np.array([g.ready_time for g in groups])
        comm_start = np.array([g.comm_start for g in groups])
        comm_end = np.array([g.comm_end for g in groups])
        if np.isnan(comm_end).any():  # pragma: no cover - defensive
            raise RuntimeError("some wave groups never communicated")
        return OverlapResult(
            latency=float(comm_end[-1]),
            partition=partition,
            trace=trace,
            group_compute_ready=ready,
            group_comm_start=comm_start,
            group_comm_end=comm_end,
            metadata={
                "payload_bytes": payloads,
                "num_waves": self.num_waves(),
                "compute_sms": self.analytic.compute_sms,
                "events_processed": engine.processed_events,
                "event_driven": True,
            },
        )

    def cross_check(self, partition: WavePartition, rel_tol: float = 1e-6) -> dict[str, float]:
        """Compare the event-driven and analytic schedules for one partition."""
        event = self.simulate(partition)
        analytic = self.analytic.simulate(partition)
        latency_gap = abs(event.latency - analytic.latency) / analytic.latency
        start_gap = float(
            np.max(np.abs(event.group_comm_start - analytic.group_comm_start))
        )
        return {
            "event_latency": event.latency,
            "analytic_latency": analytic.latency,
            "relative_latency_gap": latency_gap,
            "max_comm_start_gap": start_gap,
            "within_tolerance": float(latency_gap <= rel_tol),
        }
