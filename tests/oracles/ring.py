"""Step-by-step ring collectives: the algorithm behind the latency model's traffic.

NCCL's default algorithm for large messages is the bandwidth-optimal ring
(Patarasuk & Yuan): an AllReduce of ``S`` elements on ``n`` ranks moves
``2 * (n - 1) / n * S`` elements per rank, a ReduceScatter or AllGather moves
``(n - 1) / n * S``.  The latency model hard-codes those factors in
:func:`repro.comm.primitives.ring_volume_factor`.  This oracle runs the ring
chunk schedule step by step and counts what each rank sends, so the tests
can check the functional results against the direct collectives and the
hard-coded factors against the traffic the algorithm actually moves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RingTrafficReport:
    """Per-rank traffic of one ring collective execution."""

    n_ranks: int
    steps: int
    elements_sent_per_rank: float

    def volume_factor(self, payload_elements: float) -> float:
        """Traffic per rank relative to the per-rank payload size."""
        if payload_elements <= 0:
            return 0.0
        return self.elements_sent_per_rank / payload_elements

    def combine(self, other: "RingTrafficReport") -> "RingTrafficReport":
        """Accumulate the traffic of a second phase (e.g. RS followed by AG)."""
        if other.n_ranks != self.n_ranks:
            raise ValueError("cannot combine reports with different rank counts")
        return RingTrafficReport(
            n_ranks=self.n_ranks,
            steps=self.steps + other.steps,
            elements_sent_per_rank=self.elements_sent_per_rank + other.elements_sent_per_rank,
        )


def _as_flat_copies(buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
    flats = [np.asarray(b, dtype=np.float64).ravel().copy() for b in buffers]
    size = flats[0].size
    for rank, flat in enumerate(flats):
        if flat.size != size:
            raise ValueError(f"rank {rank} buffer size {flat.size} differs from {size}")
    return flats


def ring_reduce_scatter(buffers: Sequence[np.ndarray]) -> tuple[list[np.ndarray], RingTrafficReport]:
    """Ring ReduceScatter over flattened buffers.

    Returns per-rank reduced chunks -- rank ``g`` ends up owning chunk ``g`` of
    the element-wise sum, matching NCCL's semantics -- plus a traffic report.
    """
    n = len(buffers)
    if n < 1:
        raise ValueError("need at least one rank")
    flats = _as_flat_copies(buffers)
    chunks = [list(np.array_split(f, n)) for f in flats]

    sent_elements = 0
    # Step t: rank r sends chunk (r - t - 1) mod n to rank (r + 1) mod n, which
    # accumulates it.  After n - 1 steps rank r holds the fully reduced chunk r.
    for step in range(n - 1):
        transfers = []
        for rank in range(n):
            chunk_id = (rank - step - 1) % n
            dst = (rank + 1) % n
            transfers.append((dst, chunk_id, chunks[rank][chunk_id]))
            sent_elements += chunks[rank][chunk_id].size
        for dst, chunk_id, data in transfers:
            chunks[dst][chunk_id] = chunks[dst][chunk_id] + data
    owned = [chunks[rank][rank].copy() for rank in range(n)]
    report = RingTrafficReport(
        n_ranks=n, steps=max(0, n - 1), elements_sent_per_rank=sent_elements / max(1, n)
    )
    return owned, report


def ring_all_gather(chunks: Sequence[np.ndarray]) -> tuple[list[np.ndarray], RingTrafficReport]:
    """Ring AllGather: every rank ends with the concatenation of all chunks."""
    n = len(chunks)
    if n < 1:
        raise ValueError("need at least one rank")
    parts = [np.asarray(c, dtype=np.float64).ravel().copy() for c in chunks]
    have: list[dict[int, np.ndarray]] = [{rank: parts[rank].copy()} for rank in range(n)]

    sent_elements = 0
    # Step t: rank r forwards chunk (r - t) mod n, which it received (or owned)
    # in the previous step, to rank (r + 1) mod n.
    for step in range(n - 1):
        transfers = []
        for rank in range(n):
            chunk_id = (rank - step) % n
            dst = (rank + 1) % n
            transfers.append((dst, chunk_id, have[rank][chunk_id]))
            sent_elements += have[rank][chunk_id].size
        for dst, chunk_id, data in transfers:
            have[dst][chunk_id] = data.copy()
    gathered = [np.concatenate([have[rank][i] for i in range(n)]) for rank in range(n)]
    report = RingTrafficReport(
        n_ranks=n, steps=max(0, n - 1), elements_sent_per_rank=sent_elements / max(1, n)
    )
    return gathered, report


def ring_all_reduce(buffers: Sequence[np.ndarray]) -> tuple[list[np.ndarray], RingTrafficReport]:
    """Ring AllReduce = ring ReduceScatter followed by ring AllGather."""
    shape = np.asarray(buffers[0]).shape
    owned, rs_report = ring_reduce_scatter(buffers)
    gathered, ag_report = ring_all_gather(owned)
    results = [g.reshape(shape) for g in gathered]
    return results, rs_report.combine(ag_report)
