"""The signaling mechanism: group-wise tile counting.

On real hardware the GEMM epilogue atomically increments a per-group counter
when a tile finishes; a polling kernel on the communication stream releases
the group's collective once the counter reaches the group size (Fig. 6).
Here the same state machine is implemented explicitly so that

* the functional path can assert that a group is only communicated after all
  of its tiles completed,
* the overlap executor can derive the exact signal firing times from the
  per-tile completion times of the GEMM model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.wave_grouping import WavePartition


class SignalOrderError(RuntimeError):
    """Raised when a group is consumed before all of its tiles finished."""


@dataclass
class CountingTable:
    """Per-group completion counters, mirroring the on-device counting table."""

    group_sizes: tuple[int, ...]
    counts: list[int] = field(default_factory=list)
    fired: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.group_sizes or any(s <= 0 for s in self.group_sizes):
            raise ValueError("group sizes must be positive")
        if not self.counts:
            self.counts = [0] * len(self.group_sizes)
        if not self.fired:
            self.fired = [False] * len(self.group_sizes)

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    def record_tile(self, group_index: int) -> bool:
        """Atomically count one finished tile; return True when the group's
        counter just reached the group size (the signal fires)."""
        if not 0 <= group_index < self.num_groups:
            raise IndexError(f"group {group_index} outside 0..{self.num_groups - 1}")
        if self.counts[group_index] >= self.group_sizes[group_index]:
            raise SignalOrderError(
                f"group {group_index} received more tiles than its size "
                f"{self.group_sizes[group_index]}"
            )
        self.counts[group_index] += 1
        if self.counts[group_index] == self.group_sizes[group_index]:
            self.fired[group_index] = True
            return True
        return False

    def is_complete(self, group_index: int) -> bool:
        return self.counts[group_index] == self.group_sizes[group_index]

    def all_complete(self) -> bool:
        return all(self.is_complete(g) for g in range(self.num_groups))

    def assert_ready(self, group_index: int) -> None:
        """Raise unless the group's signal has fired (data dependency check)."""
        if not self.is_complete(group_index):
            raise SignalOrderError(
                f"communication of group {group_index} attempted with only "
                f"{self.counts[group_index]}/{self.group_sizes[group_index]} tiles done"
            )


@dataclass(frozen=True)
class GroupAssignment:
    """Static tile-to-group assignment derived from the execution order.

    ``group_of_tile[t]`` gives the wave group of tile index ``t``; the
    per-group tile lists keep execution order, which is also the order in
    which the pre-communication reorder packs them.
    """

    partition: WavePartition
    group_tiles: tuple[tuple[int, ...], ...]
    group_of_tile: dict[int, int]

    @classmethod
    def build(
        cls, partition: WavePartition, wave_tiles: Sequence[Sequence[int]]
    ) -> "GroupAssignment":
        groups = partition.group_tiles(wave_tiles)
        group_of_tile: dict[int, int] = {}
        for group_index, tiles in enumerate(groups):
            for tile in tiles:
                if tile in group_of_tile:
                    raise ValueError(f"tile {tile} assigned to two groups")
                group_of_tile[tile] = group_index
        return cls(
            partition=partition,
            group_tiles=tuple(tuple(t) for t in groups),
            group_of_tile=group_of_tile,
        )

    @property
    def num_groups(self) -> int:
        return len(self.group_tiles)

    def tiles_of(self, group_index: int) -> tuple[int, ...]:
        return self.group_tiles[group_index]

    def group_tile_counts(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.group_tiles)

    def counting_table(self) -> CountingTable:
        """A fresh counting table sized in tiles (not waves) per group."""
        return CountingTable(group_sizes=self.group_tile_counts())


@dataclass(frozen=True)
class SignalSchedule:
    """Signal firing time of every group, derived from tile completion times."""

    group_ready_times: np.ndarray

    @classmethod
    def from_tile_times(
        cls,
        assignment: GroupAssignment,
        tile_completion_times: np.ndarray,
        signal_latency: float = 0.0,
    ) -> "SignalSchedule":
        """Compute when each group's signal fires.

        A group is ready when its *last* tile completes; the signal adds the
        polling round-trip latency on top.  The construction also replays the
        counting table to assert the mechanism's invariant.
        """
        times = np.asarray(tile_completion_times, dtype=np.float64)
        table = assignment.counting_table()
        completion_order = np.argsort(times, kind="stable")
        fire_time = np.full(assignment.num_groups, np.nan)
        for tile in completion_order:
            tile = int(tile)
            if tile not in assignment.group_of_tile:
                continue
            group = assignment.group_of_tile[tile]
            if table.record_tile(group):
                fire_time[group] = times[tile] + signal_latency
        if np.isnan(fire_time).any():
            missing = [g for g in range(assignment.num_groups) if np.isnan(fire_time[g])]
            raise SignalOrderError(f"groups {missing} never became ready")
        return cls(group_ready_times=fire_time)

    def ready_time(self, group_index: int) -> float:
        return float(self.group_ready_times[group_index])

    def is_monotonic(self) -> bool:
        """Group signals fire in group order when groups follow wave order."""
        return bool(np.all(np.diff(self.group_ready_times) >= -1e-12))
