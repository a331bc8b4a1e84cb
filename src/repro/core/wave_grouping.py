"""Wave-group partitions: the tunable design space of FlashOverlap.

A GEMM executes in ``T`` waves.  After each wave the design may either trigger
the communication of everything accumulated since the previous trigger, or
keep accumulating; the last wave always triggers.  A choice is therefore a
*composition* of ``T`` -- an ordered tuple of positive group sizes summing to
``T`` -- and the raw design space has ``2^(T-1)`` elements (Fig. 9).  The
tuner builds the pruned space from a boolean decision matrix, or for large
``T`` the heuristic family straight from its closed forms, as one
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
    # The first group has at most max_first_group waves iff one of those
    # waves communicates, and the last group at most max_last_group iff one
    # of the max_last_group waves before the last does (the last wave always
    # communicates, so a bound of T or more keeps every row).
    if max_first_group < num_waves:
        masks = masks[masks & ((1 << max_first_group) - 1) != 0]
    if max_last_group < num_waves:
        masks = masks[masks >> (num_waves - 1 - max_last_group) != 0]
    bits = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    decisions = np.unpackbits(bits, axis=1, count=num_waves, bitorder="little").view(bool)
    decisions[:, -1] = True
    counts = np.count_nonzero(decisions, axis=1)
    # Every row ends with a decision, so the gaps between consecutive
    # decisions of the flattened matrix are the group sizes, row after row;
    # each row's k-th gap goes to its column k.
    sizes = np.zeros(decisions.shape, dtype=np.int64)
    sizes[np.arange(num_waves) < counts[:, None]] = np.diff(np.flatnonzero(decisions), prepend=-1)
    return PartitionMatrix(sizes, counts)


def _geometric_rows(num_waves: int, max_first_group: int, max_last_group: int) -> list[list[int]]:
    """The geometric rows of the heuristic family that no earlier row repeats.

    Each row starts with a group of ``first`` waves and grows every next group
    by ``growth`` (by at least one wave) until the next group would reach the
    waves left; that remainder is split into ``max_last_group``-sized groups
    and one last group of at most ``max_last_group``.  ``growth = 1`` keeps a
    run of ``first``-sized groups, written in closed form like the tail.
    Rows that equal the equal-size row of their first group, or an earlier
    geometric row, are dropped.
    """
    rows: list[list[int]] = []
    for first in range(1, min(max_first_group, num_waves) + 1):
        full, remainder = divmod(num_waves, first)
        equal = [first] * full + ([remainder] if remainder else [])
        for growth in (1.0, 1.5, 2.0, 3.0):
            sizes = [first]
            remaining = num_waves - first
            if growth == 1.0:
                run = max(0, (remaining - 1) // first)
                sizes += [first] * run
                remaining -= run * first
            else:
                current = float(first)
                while True:  # capped at the wave count, so it never overflows
                    current = min(max(current * growth, current + 1), num_waves)
                    size = int(round(current))
                    if size >= remaining:
                        break
                    sizes.append(size)
                    remaining -= size
            if remaining:
                split = (remaining - 1) // max_last_group
                sizes += [max_last_group] * split + [remaining - split * max_last_group]
            if sizes != equal and sizes not in rows:
                rows.append(sizes)
    return rows


def heuristic_partition_matrix(
    num_waves: int, max_first_group: int, max_last_group: int
) -> PartitionMatrix:
    """A compact candidate family for large ``T`` where enumeration explodes.

    Combines (a) the equal-size groupings for every group size ``g`` (their
    extremes are the per-wave and single-group partitions), built as one dense
    block, and (b) the geometric "small head, growing body, bounded tail"
    rows of :func:`_geometric_rows`.  Rows keep first-occurrence order: the
    per-wave row, then the single group when it is within the last-group
    bound, the other equal-size rows by ascending ``g``, the geometric rows.
    """
    group = np.arange(1, num_waves + 1)
    if num_waves <= max_last_group:
        group[1:] = np.roll(group[1:], 1)
    geometric = _geometric_rows(num_waves, max_first_group, max_last_group)
    sizes = np.zeros((num_waves + len(geometric), num_waves), dtype=np.int64)
    counts = np.empty(sizes.shape[0], dtype=np.int64)
    # Group j of the equal-size row g holds min(g, waves left after j groups) waves.
    equal = sizes[:num_waves]
    np.multiply.outer(group, np.arange(num_waves), out=equal)
    np.subtract(num_waves, equal, out=equal)
    np.clip(equal, 0, group[:, None], out=equal)
    counts[:num_waves] = -(-num_waves // group)
    for row, row_sizes in enumerate(geometric, start=num_waves):
        sizes[row, : len(row_sizes)] = row_sizes
        counts[row] = len(row_sizes)
    return PartitionMatrix(sizes, counts)


# -- batch encoding -----------------------------------------------------------


@dataclass(frozen=True)
class PartitionMatrix:
    """Padded NumPy encoding of a family of candidate partitions.

    Row ``c`` describes candidate ``c``: ``sizes[c, g]`` is the wave count of
    its ``g``-th group, zero-padded past ``counts[c]`` groups.  This is the
    input format of the vectorized latency predictor: one encoding is built
    per search and reused by every evaluation pass.
    """

    sizes: np.ndarray  # (num_candidates, max_groups) int64, zero padded
    counts: np.ndarray  # (num_candidates,) int64, number of real groups

    @property
    def num_candidates(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def max_groups(self) -> int:
        return int(self.sizes.shape[1])

    @property
    def total_waves(self) -> np.ndarray:
        """Wave count covered by each candidate."""
        return self.sizes.sum(axis=1)

    def partition(self, index: int) -> WavePartition:
        """Decode one row back into a :class:`WavePartition`."""
        return WavePartition(tuple(self.sizes[index, : self.counts[index]].tolist()))


def candidate_partitions_matrix(partitions: Sequence[WavePartition]) -> PartitionMatrix:
    """Encode candidate partitions as zero-padded group-size rows.

    The padding is chosen so that downstream vectorized evaluation is exact:
    a padded group has size zero, contributes zero compute time and zero
    communication payload, and therefore leaves the candidate's timeline
    unchanged.
    """
    if not partitions:
        return PartitionMatrix(np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64))
    counts = np.array([p.num_groups for p in partitions], dtype=np.int64)
    sizes = np.zeros((len(partitions), int(counts.max())), dtype=np.int64)
    for row, partition in enumerate(partitions):
        sizes[row, : counts[row]] = partition.group_sizes
    return PartitionMatrix(sizes, counts)
