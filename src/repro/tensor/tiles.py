"""Gather/scatter between a matrix and a packed tile buffer.

The pre-communication reordering of FlashOverlap writes finished tiles into a
contiguous communication buffer; the post-communication reordering reads them
back into their logical positions.  On real hardware these are fused into the
GEMM epilogue and the next element-wise kernel; here each reorder is one NumPy
gather or scatter through a flat index permutation computed once per tile
order, so that correctness of the mapping logic can be validated end to end.
The tile-by-tile loops these permutations replace live in the test oracles.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.tensor.layout import TileLayout


def tile_flat_indices(
    layout: TileLayout, tile_indices: Iterable[int], row_limit: tuple[int, int] | None = None
) -> np.ndarray:
    """Flat (row-major) matrix indices of the given tiles, in pack order.

    ``tile_flat_indices(layout, order)[k]`` is the flat position in the
    ``layout.m x layout.n`` matrix of the ``k``-th element of the packed
    buffer: the tiles of ``order`` concatenated, each flattened row-major.  With
    ``row_limit=(start, stop)`` only rows ``start..stop-1`` *within each tile*
    are included (the ReduceScatter sub-tile split).  Precomputing these
    permutations once per reorder plan turns every pre/post-communication
    reorder into a single ``np.take`` / fancy-index assignment.
    """
    parts = []
    for tile_index in tile_indices:
        rs, cs = layout.tile_slices(tile_index)
        row_start, row_stop = rs.start, rs.stop
        if row_limit is not None:
            row_start, row_stop = rs.start + row_limit[0], rs.start + row_limit[1]
        rows = np.arange(row_start, row_stop, dtype=np.int64)
        cols = np.arange(cs.start, cs.stop, dtype=np.int64)
        parts.append((rows[:, None] * layout.n + cols[None, :]).reshape(-1))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def gather_tiles_indexed(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Pack tiles into a flat buffer in the order ``indices`` encodes.

    ``indices`` is the permutation from :func:`tile_flat_indices`; the result
    is element-for-element identical to copying the tiles one by one.
    """
    return np.take(matrix, indices)


def scatter_tiles_indexed(matrix: np.ndarray, indices: np.ndarray, buffer: np.ndarray) -> None:
    """Unpack a buffer of :func:`gather_tiles_indexed` into ``matrix`` (in place)."""
    if buffer.size != indices.size:
        raise ValueError(
            f"buffer has {buffer.size} elements but the index permutation covers {indices.size}"
        )
    np.put(matrix, indices, buffer)
