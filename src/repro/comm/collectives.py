"""Functional NumPy collectives over simulated per-GPU buffers.

A "GPU" here is simply one NumPy array in a list; rank ``g`` owns
``buffers[g]``.  These functions define the *data semantics* that the overlap
pipeline must preserve: the FlashOverlap path (reorder -> collective ->
reorder back) is validated against them in the correctness tests, mirroring
artifact experiment E1.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _check_same_shape(buffers: Sequence[np.ndarray]) -> None:
    if not buffers:
        raise ValueError("need at least one buffer")
    shape = buffers[0].shape
    for rank, buf in enumerate(buffers):
        if buf.shape != shape:
            raise ValueError(
                f"rank {rank} buffer shape {buf.shape} differs from rank 0 shape {shape}"
            )


def all_reduce(buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sum-AllReduce: every rank receives the element-wise sum of all buffers."""
    _check_same_shape(buffers)
    total = np.sum(np.stack([np.asarray(b, dtype=np.float64) for b in buffers]), axis=0)
    return [total.copy() for _ in buffers]


def reduce_scatter_flat(buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sum-ReduceScatter over the flattened buffer (NCCL's native semantics).

    Rank ``g`` receives elements ``[g*S/n, (g+1)*S/n)`` of the element-wise
    sum, where ``S`` is the flattened size.
    """
    _check_same_shape(buffers)
    n = len(buffers)
    flat = [np.asarray(b, dtype=np.float64).ravel() for b in buffers]
    size = flat[0].size
    if size % n != 0:
        raise ValueError(f"buffer size {size} not divisible by {n} ranks")
    total = np.sum(np.stack(flat), axis=0)
    chunk = size // n
    return [total[g * chunk : (g + 1) * chunk].copy() for g in range(n)]


def all_to_all(send: Sequence[Sequence[np.ndarray]]) -> list[list[np.ndarray]]:
    """All-to-All exchange of per-destination buffers.

    ``send[src][dst]`` is the buffer rank ``src`` sends to rank ``dst``; the
    result ``recv[dst][src]`` is the buffer rank ``dst`` received from rank
    ``src``.  Buffers may have different sizes (uneven token routing).
    """
    n = len(send)
    for src, row in enumerate(send):
        if len(row) != n:
            raise ValueError(f"rank {src} provides {len(row)} buffers, expected {n}")
    return [[np.asarray(send[src][dst]).copy() for src in range(n)] for dst in range(n)]


def all_to_all_rows(
    buffers: Sequence[np.ndarray], destinations: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Row-level All-to-All used by MoE layers.

    Every rank ``src`` owns a matrix of tokens (rows) and a destination rank
    per token.  Rank ``dst`` receives, concatenated in order of source rank and
    then source row index, all tokens routed to it.  This is the reference
    semantics the FlashOverlap sub-token reordering must reproduce.
    """
    if len(buffers) != len(destinations):
        raise ValueError("buffers and destinations must have the same length")
    n = len(buffers)
    received: list[list[np.ndarray]] = [[] for _ in range(n)]
    for src in range(n):
        tokens = np.asarray(buffers[src])
        dests = np.asarray(destinations[src])
        if dests.shape[0] != tokens.shape[0]:
            raise ValueError(
                f"rank {src}: {tokens.shape[0]} tokens but {dests.shape[0]} destinations"
            )
        if dests.size and (dests.min() < 0 or dests.max() >= n):
            raise ValueError(f"rank {src}: destination out of range 0..{n - 1}")
        for dst in range(n):
            selected = tokens[dests == dst]
            if selected.size:
                received[dst].append(selected)
            else:
                received[dst].append(tokens[:0])
    return [
        np.concatenate(parts, axis=0) if parts else np.empty((0,) + buffers[0].shape[1:])
        for parts in received
    ]
