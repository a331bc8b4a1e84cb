"""Enumerate-and-filter candidate lists behind the tuner's decision matrix.

:meth:`repro.core.tuner.PredictiveTuner.candidates` builds the pruned design
space as one boolean decision matrix and the heuristic family as a
:class:`~repro.core.wave_grouping.PartitionMatrix`.  This oracle enumerates
every ``2^(T-1)`` composition as a :class:`WavePartition` (one "communicate
after wave i" decision vector per mask), keeps those within
the first/last bounds, and falls back to the whole space when none is kept,
so the matrix can be asserted equal to it row by row.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.core.wave_grouping import WavePartition, heuristic_partitions


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
