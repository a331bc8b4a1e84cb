"""Enumerate-and-filter candidate lists behind the tuner's candidate matrices.

:meth:`repro.core.tuner.PredictiveTuner.candidates` builds the pruned design
space as one boolean decision matrix and the heuristic family straight into
a :class:`~repro.core.wave_grouping.PartitionMatrix`.  This oracle enumerates
every ``2^(T-1)`` composition as a :class:`WavePartition` (one "communicate
after wave i" decision vector per mask), keeps those within
the first/last bounds, and falls back to the whole space when none is kept;
it builds the heuristic family one :class:`WavePartition` at a time, group
by group, so both matrices can be asserted equal to it row by row.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.core.wave_grouping import WavePartition


def from_decisions(decisions: Sequence[bool]) -> WavePartition:
    """Build a partition from the binary "communicate after wave i" vector.

    ``decisions`` has one entry per wave; the last wave's decision is
    forced to True (all remaining data must be communicated).
    """
    if not decisions:
        raise ValueError("need at least one wave")
    sizes = []
    current = 0
    for index, flag in enumerate(decisions):
        current += 1
        last = index == len(decisions) - 1
        if flag or last:
            sizes.append(current)
            current = 0
    return WavePartition(tuple(sizes))


def enumerate_partitions(num_waves: int) -> Iterator[WavePartition]:
    """Enumerate the full design space: all ``2^(T-1)`` compositions of ``T``."""
    if num_waves <= 0:
        raise ValueError("num_waves must be positive")
    for mask in range(1 << (num_waves - 1)):
        yield from_decisions([bool(mask >> i & 1) for i in range(num_waves - 1)] + [True])


def pruned_partitions(
    num_waves: int, max_first_group: int, max_last_group: int
) -> list[WavePartition]:
    """The pruned design space: bounded first and last group sizes."""
    return [
        p
        for p in enumerate_partitions(num_waves)
        if p.group_sizes[0] <= max_first_group and p.group_sizes[-1] <= max_last_group
    ]


def heuristic_partitions(
    num_waves: int, max_first_group: int, max_last_group: int
) -> list[WavePartition]:
    """A compact candidate family for large ``T`` where enumeration explodes.

    Combines (a) equal-size groupings for every group size, (b) geometric
    "small head, growing body, bounded tail" partitions, and (c) the per-wave
    and single-group extremes, keeping each partition's first occurrence.
    """
    candidates: dict[tuple[int, ...], WavePartition] = {}

    def add(partition: WavePartition) -> None:
        candidates.setdefault(partition.group_sizes, partition)

    add(WavePartition.per_wave(num_waves))
    if num_waves <= max_last_group:
        add(WavePartition.single_group(num_waves))
    for group_size in range(1, num_waves + 1):
        add(WavePartition.equal_groups(num_waves, group_size))
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


def candidate_partitions(
    num_waves: int,
    max_first_group: int,
    max_last_group: int,
    max_exhaustive_waves: int,
) -> list[WavePartition]:
    """Pruned enumeration when tractable, heuristic family otherwise."""
    if num_waves <= max_exhaustive_waves:
        pruned = pruned_partitions(num_waves, max_first_group, max_last_group)
        if pruned:
            return pruned
        return list(enumerate_partitions(num_waves))
    return heuristic_partitions(num_waves, max_first_group, max_last_group)
