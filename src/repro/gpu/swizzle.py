"""Block-swizzling tile execution order.

GEMM kernels do not launch output tiles in address (row-major) order.  To
improve L2 reuse of the ``B`` operand, CUTLASS-style kernels *swizzle* the
launch order: tiles are visited column-panel by column-panel (a panel is
``swizzle_size`` tile columns wide), walking down the rows within a panel.
The consequence exploited by FlashOverlap is that the tiles of an execution
wave are **not contiguous in memory**, which is why a pre-communication
reordering is needed (paper Sec. 2.1.2 and Fig. 2).  Orders are NumPy index
arrays cut from the row-major tile grid, one block per column panel; only
:func:`wave_partition` makes Python lists.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.layout import TileLayout


def unswizzled_order(layout: TileLayout) -> np.ndarray:
    """Row-major (address order) tile execution order."""
    return np.arange(layout.num_tiles)


def swizzled_order(layout: TileLayout, swizzle_size: int) -> np.ndarray:
    """Tile execution order under block swizzling.

    Tiles are launched panel by panel, where a panel is ``swizzle_size``
    consecutive tile columns; within a panel the walk is row-major across the
    panel's columns, descending the tile rows.  ``swizzle_size == 1`` reduces
    to a column-major launch; ``swizzle_size >= grid_n`` reduces to the
    row-major order.
    """
    if swizzle_size <= 0:
        raise ValueError("swizzle_size must be positive")
    grid = np.arange(layout.num_tiles).reshape(layout.grid_m, layout.grid_n)
    width = layout.grid_n - layout.grid_n % swizzle_size
    # The full-width panels as one (panel, row, column) block, then the narrower last one.
    blocks = grid[:, :width].reshape(layout.grid_m, width // swizzle_size, swizzle_size)
    return np.concatenate([blocks.swapaxes(0, 1).ravel(), grid[:, width:].ravel()])


def execution_order(layout: TileLayout, swizzle_size: int | None) -> np.ndarray:
    """Return the tile execution order; ``None`` or ``0`` disables swizzling."""
    if not swizzle_size:
        return unswizzled_order(layout)
    return swizzled_order(layout, swizzle_size)


def wave_partition(order: np.ndarray, wave_size: int) -> list[list[int]]:
    """Chunk an execution order into waves of ``wave_size`` tiles.

    The last wave may be smaller.  ``wave_size`` is normally the number of SMs
    available to the GEMM kernel.  The waves are lists of Python ints.
    """
    if wave_size <= 0:
        raise ValueError("wave_size must be positive")
    tiles = np.asarray(order).tolist()
    return [tiles[i : i + wave_size] for i in range(0, len(tiles), wave_size)]
