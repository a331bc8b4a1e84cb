"""Tile-by-tile gather/scatter between a matrix and a packed tile buffer.

:mod:`repro.tensor.tiles` packs and unpacks communication buffers through
one precomputed flat index permutation (:func:`~repro.tensor.tiles.tile_flat_indices`
with ``gather_tiles_indexed`` / ``scatter_tiles_indexed``).  These loops copy
one tile (or one sub-tile) at a time through :meth:`TileLayout.tile_slices`,
exactly as Fig. 7 draws the pre/post-communication reorders, so the index
path can be asserted bit-identical to them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.tensor.layout import TileLayout


def extract_tile(matrix: np.ndarray, layout: TileLayout, tile_index: int) -> np.ndarray:
    """Return a copy of one tile of ``matrix``."""
    _check_matrix(matrix, layout)
    rs, cs = layout.tile_slices(tile_index)
    return np.ascontiguousarray(matrix[rs, cs])


def scatter_tile(
    matrix: np.ndarray, layout: TileLayout, tile_index: int, data: np.ndarray
) -> None:
    """Write one tile's data back into ``matrix`` in place."""
    _check_matrix(matrix, layout)
    rs, cs = layout.tile_slices(tile_index)
    expected = (rs.stop - rs.start, cs.stop - cs.start)
    if data.shape != expected:
        raise ValueError(
            f"tile {tile_index} expects shape {expected}, got {data.shape}"
        )
    matrix[rs, cs] = data


def gather_tiles(
    matrix: np.ndarray, layout: TileLayout, tile_indices: Iterable[int]
) -> np.ndarray:
    """Pack tiles into a flat contiguous buffer in the given order.

    This is the pre-communication reordering at tile granularity: each tile is
    flattened row-major and tiles are concatenated in the order of
    ``tile_indices`` (normally the execution order of a wave group).
    """
    parts = [extract_tile(matrix, layout, t).ravel() for t in tile_indices]
    if not parts:
        return np.empty(0, dtype=matrix.dtype)
    return np.concatenate(parts)


def scatter_tiles(
    matrix: np.ndarray,
    layout: TileLayout,
    tile_indices: Sequence[int],
    buffer: np.ndarray,
) -> None:
    """Unpack a flat buffer produced by :func:`gather_tiles` back into ``matrix``."""
    offset = 0
    for tile_index in tile_indices:
        rows, cols = layout.tile_shape(tile_index)
        count = rows * cols
        chunk = buffer[offset : offset + count]
        if chunk.size != count:
            raise ValueError(
                f"buffer exhausted while scattering tile {tile_index}: "
                f"needed {count} elements, got {chunk.size}"
            )
        scatter_tile(matrix, layout, tile_index, chunk.reshape(rows, cols))
        offset += count
    if offset != buffer.size:
        raise ValueError(
            f"buffer has {buffer.size - offset} trailing elements after scattering"
        )


def split_tile_rows(tile: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split a tile along its rows into ``parts`` equal sub-tiles.

    Used by the ReduceScatter reordering: the ``k``-th sub-tile of every tile
    ends up on GPU ``k``, so every matrix row stays whole on a single GPU.
    """
    rows = tile.shape[0]
    if parts <= 0:
        raise ValueError("parts must be positive")
    if rows % parts != 0:
        raise ValueError(
            f"tile with {rows} rows cannot be split into {parts} equal sub-tiles"
        )
    step = rows // parts
    return [np.ascontiguousarray(tile[k * step : (k + 1) * step]) for k in range(parts)]


def _check_matrix(matrix: np.ndarray, layout: TileLayout) -> None:
    if matrix.ndim != 2 or matrix.shape != (layout.m, layout.n):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match layout "
            f"({layout.m}, {layout.n})"
        )
