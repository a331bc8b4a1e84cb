"""Block-swizzling tile execution order.

GEMM kernels do not launch output tiles in address (row-major) order.  To
improve L2 reuse of the ``B`` operand, CUTLASS-style kernels *swizzle* the
launch order: tiles are visited column-panel by column-panel (a panel is
``swizzle_size`` tile columns wide), walking down the rows within a panel.
The consequence exploited by FlashOverlap is that the tiles of an execution
wave are **not contiguous in memory**, which is why a pre-communication
reordering is needed (paper Sec. 2.1.2 and Fig. 2).
"""

from __future__ import annotations

from repro.tensor.layout import TileLayout


def unswizzled_order(layout: TileLayout) -> list[int]:
    """Row-major (address order) tile execution order."""
    return list(range(layout.num_tiles))


def swizzled_order(layout: TileLayout, swizzle_size: int) -> list[int]:
    """Tile execution order under block swizzling.

    Tiles are launched panel by panel, where a panel is ``swizzle_size``
    consecutive tile columns; within a panel the walk is row-major across the
    panel's columns, descending the tile rows.  ``swizzle_size == 1`` reduces
    to a column-major launch; ``swizzle_size >= grid_n`` reduces to the
    row-major order.
    """
    if swizzle_size <= 0:
        raise ValueError("swizzle_size must be positive")
    order: list[int] = []
    for panel_start in range(0, layout.grid_n, swizzle_size):
        panel_cols = range(panel_start, min(panel_start + swizzle_size, layout.grid_n))
        for row_block in range(layout.grid_m):
            for col_block in panel_cols:
                order.append(layout.tile_index(row_block, col_block))
    return order


def execution_order(layout: TileLayout, swizzle_size: int | None) -> list[int]:
    """Return the tile execution order; ``None`` or ``0`` disables swizzling."""
    if not swizzle_size:
        return unswizzled_order(layout)
    return swizzled_order(layout, swizzle_size)


def address_discontiguity(layout: TileLayout, order: list[int], window: int) -> float:
    """Fraction of adjacent pairs in the first ``window`` launched tiles that
    are *not* adjacent in address order.

    A value of 0 means the first wave is a contiguous block (communication
    could proceed without reordering); larger values quantify how much the
    swizzle scrambles addresses.
    """
    if window < 2:
        return 0.0
    window = min(window, len(order))
    pairs = zip(order[: window - 1], order[1:window])
    broken = sum(1 for a, b in pairs if b != a + 1)
    return broken / (window - 1)


def wave_partition(order: list[int], wave_size: int) -> list[list[int]]:
    """Chunk an execution order into waves of ``wave_size`` tiles.

    The last wave may be smaller.  ``wave_size`` is normally the number of SMs
    available to the GEMM kernel.
    """
    if wave_size <= 0:
        raise ValueError("wave_size must be positive")
    return [order[i : i + wave_size] for i in range(0, len(order), wave_size)]
