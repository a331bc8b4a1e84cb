"""Tile grid geometry of a GEMM output matrix.

A GEMM ``A[M, K] @ B[K, N] = C[M, N]`` is executed tile by tile: the output
matrix ``C`` is partitioned into a grid of ``tile_m x tile_n`` blocks and each
block is assigned to one streaming multiprocessor (SM).  Tiles are identified
by a *tile index* in row-major order over the grid::

    tile_index = row_block * grid_n + col_block

The layout supports ragged edges (``M`` or ``N`` not divisible by the tile
size); edge tiles are simply smaller.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TileLayout:
    """Geometry of the tile grid covering an ``M x N`` matrix.

    Parameters
    ----------
    m, n:
        Matrix dimensions (rows, columns).
    tile_m, tile_n:
        Tile dimensions.  Tiles at the bottom/right edge may be smaller when
        ``m``/``n`` is not a multiple of the tile size.
    """

    m: int
    n: int
    tile_m: int
    tile_n: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0:
            raise ValueError(f"matrix dims must be positive, got {self.m}x{self.n}")
        if self.tile_m <= 0 or self.tile_n <= 0:
            raise ValueError(
                f"tile dims must be positive, got {self.tile_m}x{self.tile_n}"
            )

    # -- grid geometry -----------------------------------------------------

    @property
    def grid_m(self) -> int:
        """Number of tile rows."""
        return -(-self.m // self.tile_m)

    @property
    def grid_n(self) -> int:
        """Number of tile columns."""
        return -(-self.n // self.tile_n)

    @property
    def num_tiles(self) -> int:
        """Total number of tiles in the grid."""
        return self.grid_m * self.grid_n

    # -- index conversions -------------------------------------------------

    def tile_coords(self, tile_index: int) -> tuple[int, int]:
        """Return ``(row_block, col_block)`` of a tile index."""
        self._check_index(tile_index)
        return divmod(tile_index, self.grid_n)

    def tile_index(self, row_block: int, col_block: int) -> int:
        """Return the tile index of grid coordinates ``(row_block, col_block)``."""
        if not (0 <= row_block < self.grid_m and 0 <= col_block < self.grid_n):
            raise IndexError(
                f"tile coords ({row_block}, {col_block}) outside "
                f"{self.grid_m}x{self.grid_n} grid"
            )
        return row_block * self.grid_n + col_block

    def tile_slices(self, tile_index: int) -> tuple[slice, slice]:
        """Return the ``(row_slice, col_slice)`` of a tile within the matrix."""
        row_block, col_block = self.tile_coords(tile_index)
        r0 = row_block * self.tile_m
        c0 = col_block * self.tile_n
        return slice(r0, min(r0 + self.tile_m, self.m)), slice(
            c0, min(c0 + self.tile_n, self.n)
        )

    def tile_shape(self, tile_index: int) -> tuple[int, int]:
        """Return the ``(rows, cols)`` shape of a tile (edge tiles are smaller)."""
        rs, cs = self.tile_slices(tile_index)
        return rs.stop - rs.start, cs.stop - cs.start

    def tile_elements(self, tile_index: int) -> int:
        """Number of elements in a tile."""
        rows, cols = self.tile_shape(tile_index)
        return rows * cols

    # -- helpers -----------------------------------------------------------

    def is_uniform(self) -> bool:
        """True when every tile has the full ``tile_m x tile_n`` shape."""
        return self.m % self.tile_m == 0 and self.n % self.tile_n == 0

    def _check_index(self, tile_index: int) -> None:
        if not 0 <= tile_index < self.num_tiles:
            raise IndexError(
                f"tile index {tile_index} outside grid of {self.num_tiles} tiles"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TileLayout({self.m}x{self.n}, tile {self.tile_m}x{self.tile_n}, "
            f"grid {self.grid_m}x{self.grid_n}, {self.num_tiles} tiles)"
        )
