"""Wave-group partitions: the tunable design space of FlashOverlap.

A GEMM executes in ``T`` waves.  After each wave the design may either trigger
the communication of everything accumulated since the previous trigger, or
keep accumulating; the last wave always triggers.  A choice is therefore a
*composition* of ``T`` -- an ordered tuple of positive group sizes summing to
``T`` -- and the raw design space has ``2^(T-1)`` elements (Fig. 9).  The
tuner builds the pruned space as one boolean decision matrix, a
:class:`PartitionMatrix`, and decodes only its winning row.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WavePartition:
    """An ordered partition of ``T`` waves into contiguous groups."""

    group_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.group_sizes:
            raise ValueError("a partition needs at least one group")
        if any(size <= 0 for size in self.group_sizes):
            raise ValueError(f"group sizes must be positive, got {self.group_sizes}")

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "WavePartition":
        return cls(tuple(int(s) for s in sizes))

    @classmethod
    def single_group(cls, num_waves: int) -> "WavePartition":
        """All waves in one group: communication entirely after the GEMM."""
        return cls((num_waves,))

    @classmethod
    def per_wave(cls, num_waves: int) -> "WavePartition":
        """One group per wave: the most fine-grained signaling."""
        return cls((1,) * num_waves)

    @classmethod
    def equal_groups(cls, num_waves: int, group_size: int) -> "WavePartition":
        """Equally sized groups of ``group_size`` waves (the remainder forms one
        smaller last group), the ablation baseline of Fig. 14."""
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        if group_size >= num_waves:
            return cls.single_group(num_waves)
        full = num_waves // group_size
        sizes = [group_size] * full
        remainder = num_waves - full * group_size
        if remainder:
            sizes.append(remainder)
        return cls(tuple(sizes))

    # -- properties -------------------------------------------------------------

    @property
    def num_waves(self) -> int:
        return sum(self.group_sizes)

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    def boundaries(self) -> list[int]:
        """Cumulative wave counts at the end of each group (1-based waves)."""
        total = 0
        result = []
        for size in self.group_sizes:
            total += size
            result.append(total)
        return result

    def group_waves(self, group_index: int) -> range:
        """Wave indices (0-based) belonging to one group."""
        if not 0 <= group_index < self.num_groups:
            raise IndexError(f"group {group_index} outside 0..{self.num_groups - 1}")
        boundaries = [0] + self.boundaries()
        return range(boundaries[group_index], boundaries[group_index + 1])

    def group_tiles(self, wave_tiles: Sequence[Sequence[int]]) -> list[list[int]]:
        """Tile indices of each group given the per-wave tile lists."""
        if len(wave_tiles) != self.num_waves:
            raise ValueError(
                f"partition covers {self.num_waves} waves but {len(wave_tiles)} "
                "wave tile lists were provided"
            )
        groups = []
        for group_index in range(self.num_groups):
            tiles: list[int] = []
            for wave_index in self.group_waves(group_index):
                tiles.extend(wave_tiles[wave_index])
            groups.append(tiles)
        return groups

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + ", ".join(str(s) for s in self.group_sizes) + ")"


# -- design-space enumeration -------------------------------------------------


def design_space_size(num_waves: int) -> int:
    """Size of the unpruned design space."""
    if num_waves <= 0:
        raise ValueError("num_waves must be positive")
    return 1 << (num_waves - 1)


def pruned_partition_matrix(
    num_waves: int, max_first_group: int, max_last_group: int
) -> PartitionMatrix:
    """The pruned design space: bounded first and last group sizes.

    The first group controls the head latency (cold start) and the last group
    controls the tail, so both are preferred small (Sec. 4.1.3/4.1.4).  Row
    ``mask`` communicates after wave ``i`` when bit ``i`` is set, and after the
    last wave; rows keep ascending mask order.
    """
    masks = np.arange(1 << (num_waves - 1))
    decisions = np.ones((masks.size, num_waves), dtype=bool)
    decisions[:, :-1] = (masks[:, None] >> np.arange(num_waves - 1)) & 1
    # first group <= max_first_group iff a decision falls in those first waves; the last group alike.
    keep = decisions[:, :max_first_group].any(axis=1)
    if max_last_group < num_waves:
        keep &= decisions[:, num_waves - 1 - max_last_group : num_waves - 1].any(axis=1)
    decisions = decisions[keep]
    # Each row's group ends in ascending order, padded with the wave count.
    boundaries = np.sort(np.where(decisions, np.arange(1, num_waves + 1), num_waves), axis=1)
    sizes = np.diff(boundaries, axis=1, prepend=0)
    return PartitionMatrix(sizes, np.count_nonzero(decisions, axis=1), boundaries)


def heuristic_partitions(
    num_waves: int, max_first_group: int, max_last_group: int
) -> list[WavePartition]:
    """A compact candidate family for large ``T`` where enumeration explodes.

    Combines (a) equal-size groupings for every group size, (b) geometric
    "small head, growing body, bounded tail" partitions, and (c) the per-wave
    and single-group extremes.  All candidates respect the first/last bounds
    where possible.
    """
    candidates: dict[tuple[int, ...], WavePartition] = {}

    def add(partition: WavePartition) -> None:
        candidates.setdefault(partition.group_sizes, partition)

    add(WavePartition.per_wave(num_waves))
    if num_waves <= max_last_group:
        add(WavePartition.single_group(num_waves))
    for group_size in range(1, num_waves + 1):
        partition = WavePartition.equal_groups(num_waves, group_size)
        add(partition)
    for first in range(1, min(max_first_group, num_waves) + 1):
        for growth in (1.0, 1.5, 2.0, 3.0):
            sizes = [first]
            current = float(first)
            remaining = num_waves - first
            while remaining > 0:
                if growth > 1:  # capped at the wave count, so it never overflows
                    current = min(max(current * growth, current + 1), num_waves)
                size = min(int(round(current)), remaining)
                # Keep the tail bounded: split an oversized final group.
                if remaining - size == 0 and size > max_last_group:
                    size = max_last_group
                sizes.append(max(1, size))
                remaining -= sizes[-1]
            add(WavePartition.from_sizes(sizes))
    return list(candidates.values())


# -- batch encoding -----------------------------------------------------------


@dataclass(frozen=True)
class PartitionMatrix:
    """Padded NumPy encoding of a family of candidate partitions.

    Row ``c`` describes candidate ``c``: ``sizes[c, g]`` is the wave count of
    its ``g``-th group (zero-padded past ``counts[c]`` groups) and
    ``boundaries[c, g]`` is the prefix sum of those sizes (the 1-based wave
    index at which group ``g`` ends; past the last real group the boundary
    stays at the total wave count).  This is the input format of the
    vectorized latency predictor: one encoding is built per search and
    reused by every evaluation pass.
    """

    sizes: np.ndarray  # (num_candidates, max_groups) int64, zero padded
    counts: np.ndarray  # (num_candidates,) int64, number of real groups
    boundaries: np.ndarray  # (num_candidates, max_groups) int64 prefix sums

    @property
    def num_candidates(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def max_groups(self) -> int:
        return int(self.sizes.shape[1])

    @property
    def total_waves(self) -> np.ndarray:
        """Wave count covered by each candidate."""
        return self.boundaries[:, -1] if self.max_groups else np.zeros(0, dtype=np.int64)

    def partition(self, index: int) -> WavePartition:
        """Decode one row back into a :class:`WavePartition`."""
        return WavePartition(tuple(self.sizes[index, : self.counts[index]].tolist()))


def candidate_partitions_matrix(partitions: Sequence[WavePartition]) -> PartitionMatrix:
    """Encode candidate partitions as padded prefix-sum arrays.

    The padding is chosen so that downstream vectorized evaluation is exact:
    a padded group has size zero, contributes zero compute time and zero
    communication payload, and therefore leaves the candidate's timeline
    unchanged.
    """
    if not partitions:
        empty = np.zeros((0, 0), dtype=np.int64)
        return PartitionMatrix(sizes=empty, counts=np.zeros(0, dtype=np.int64), boundaries=empty)
    counts = np.array([p.num_groups for p in partitions], dtype=np.int64)
    max_groups = int(counts.max())
    sizes = np.zeros((len(partitions), max_groups), dtype=np.int64)
    for row, partition in enumerate(partitions):
        sizes[row, : counts[row]] = partition.group_sizes
    return PartitionMatrix(sizes=sizes, counts=counts, boundaries=np.cumsum(sizes, axis=1))
