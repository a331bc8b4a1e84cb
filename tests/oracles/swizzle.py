"""Tile-by-tile block-swizzled execution order.

:func:`repro.gpu.swizzle.swizzled_order` cuts the order out of the tile-index
grid as NumPy panel blocks.  This oracle walks panel, row and column one tile
at a time through :meth:`TileLayout.tile_index`, so the blocks can be
asserted equal to it element by element.
"""

from __future__ import annotations

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
