"""Tile-by-tile block-swizzled execution order.

:func:`repro.gpu.swizzle.swizzled_order` cuts the order out of the tile-index
grid as NumPy panel blocks.  This oracle walks panel, row and column one tile
at a time through :meth:`TileLayout.tile_index`, so the blocks can be
asserted equal to it element by element.  :func:`wave_bytes_reference` is
the order-based per-wave byte sum behind the closed form of
:meth:`repro.gpu.gemm.GemmKernelModel.wave_bytes`.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.gemm import GemmKernelModel
from repro.tensor.layout import TileLayout


def swizzled_order_reference(layout: TileLayout, swizzle_size: int) -> list[int]:
    """The launch order, panel by panel, row by row, column by column."""
    if swizzle_size <= 0:
        raise ValueError("swizzle_size must be positive")
    order: list[int] = []
    for panel_start in range(0, layout.grid_n, swizzle_size):
        panel_cols = range(panel_start, min(panel_start + swizzle_size, layout.grid_n))
        for row_block in range(layout.grid_m):
            for col_block in panel_cols:
                order.append(layout.tile_index(row_block, col_block))
    return order


def wave_bytes_reference(model: GemmKernelModel, sm_count: int | None = None) -> np.ndarray:
    """Output bytes of each wave, summed tile by tile over the launch order.

    The order-based sum :meth:`GemmKernelModel.wave_bytes` replaced with its
    closed form: every tile's rows and columns, clipped at the matrix edge,
    summed over each wave's slice of :meth:`GemmKernelModel.execution_order`.
    """
    layout = model.layout
    order = model.execution_order()
    row_block, col_block = np.divmod(order, layout.grid_n)
    rows = np.minimum(layout.tile_m, layout.m - row_block * layout.tile_m)
    cols = np.minimum(layout.tile_n, layout.n - col_block * layout.tile_n)
    starts = np.arange(0, len(order), model.wave_size(sm_count))
    return np.add.reduceat(rows * cols, starts) * model.dtype_bytes
