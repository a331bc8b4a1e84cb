"""The signaling mechanism: group-wise tile counting.

On real hardware the GEMM epilogue atomically increments a per-group counter
when a tile finishes; a polling kernel on the communication stream releases
the group's collective once the counter reaches the group size (Fig. 6).
Here the same state machine is implemented explicitly so that the functional
path can assert that a group is only communicated after all of its tiles
completed.  The overlap executor does not replay it: a wave's tiles finish
together, so a group's signal fires when its last wave completes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.wave_grouping import WavePartition


class SignalOrderError(RuntimeError):
    """Raised when a group is consumed before all of its tiles finished."""


@dataclass
class CountingTable:
    """Per-group completion counters, mirroring the on-device counting table."""

    group_sizes: tuple[int, ...]
    counts: list[int] = field(init=False)

    def __post_init__(self) -> None:
        if not self.group_sizes or any(s <= 0 for s in self.group_sizes):
            raise ValueError("group sizes must be positive")
        self.counts = [0] * len(self.group_sizes)

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
        return self.counts[group_index] == self.group_sizes[group_index]

    def is_complete(self, group_index: int) -> bool:
        return self.counts[group_index] == self.group_sizes[group_index]

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

    def group_tile_counts(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.group_tiles)

    def counting_table(self) -> CountingTable:
        """A fresh counting table sized in tiles (not waves) per group."""
        return CountingTable(group_sizes=self.group_tile_counts())
