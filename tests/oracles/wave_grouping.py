"""Enumerate-and-filter candidate lists behind the tuner's decision matrix.

:meth:`repro.core.tuner.PredictiveTuner.candidates` builds the pruned design
space as one boolean decision matrix and the heuristic family as a
:class:`~repro.core.wave_grouping.PartitionMatrix`.  This oracle enumerates
every ``2^(T-1)`` composition as a :class:`WavePartition`, keeps those within
the first/last bounds, and falls back to the whole space when none is kept,
so the matrix can be asserted equal to it row by row.
"""

from __future__ import annotations

from repro.core.wave_grouping import WavePartition, enumerate_partitions, heuristic_partitions


def pruned_partitions(
    num_waves: int, max_first_group: int, max_last_group: int
) -> list[WavePartition]:
    """The pruned design space: bounded first and last group sizes."""
    return [
        p
        for p in enumerate_partitions(num_waves)
        if p.first_group <= max_first_group and p.last_group <= max_last_group
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
