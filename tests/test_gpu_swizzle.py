"""Tests for block swizzling (repro.gpu.swizzle)."""

import pytest

from repro.gpu.swizzle import (
    address_discontiguity,
    execution_order,
    swizzled_order,
    unswizzled_order,
    wave_partition,
)
from repro.tensor.layout import TileLayout


@pytest.fixture
def layout():
    return TileLayout(m=8 * 4, n=8 * 6, tile_m=8, tile_n=8)  # 4x6 grid, 24 tiles


class TestOrders:
    def test_unswizzled_is_identity(self, layout):
        assert unswizzled_order(layout) == list(range(24))

    def test_swizzled_is_permutation(self, layout):
        for size in (1, 2, 3, 5, 6, 10):
            assert sorted(swizzled_order(layout, size)) == list(range(layout.num_tiles))

    def test_swizzle_one_is_column_major(self, layout):
        order = swizzled_order(layout, 1)
        # First grid column (col_block 0) visited top to bottom.
        assert order[: layout.grid_m] == [layout.tile_index(r, 0) for r in range(layout.grid_m)]

    def test_swizzle_larger_than_grid_is_row_major(self, layout):
        assert swizzled_order(layout, layout.grid_n) == unswizzled_order(layout)
        assert swizzled_order(layout, layout.grid_n + 5) == unswizzled_order(layout)

    def test_swizzle_two_panel_pattern(self):
        # Fig. 2(b): 2x3 grid with swizzle 2 visits the first two columns of
        # both rows before the last column.
        layout = TileLayout(m=16, n=24, tile_m=8, tile_n=8)
        order = swizzled_order(layout, 2)
        assert order == [0, 1, 3, 4, 2, 5]

    def test_execution_order_dispatch(self, layout):
        assert execution_order(layout, None) == unswizzled_order(layout)
        assert execution_order(layout, 0) == unswizzled_order(layout)
        assert execution_order(layout, 2) == swizzled_order(layout, 2)

    def test_invalid_swizzle_size(self, layout):
        with pytest.raises(ValueError):
            swizzled_order(layout, -1)


class TestDiscontiguity:
    def test_row_major_first_wave_is_contiguous(self, layout):
        order = unswizzled_order(layout)
        assert address_discontiguity(layout, order, window=6) == 0.0

    def test_swizzled_first_wave_is_discontiguous(self, layout):
        order = swizzled_order(layout, 2)
        assert address_discontiguity(layout, order, window=8) > 0.0

    def test_small_window(self, layout):
        assert address_discontiguity(layout, unswizzled_order(layout), window=1) == 0.0


class TestWaves:
    def test_wave_partition_sizes(self, layout):
        order = swizzled_order(layout, 2)
        waves = wave_partition(order, wave_size=10)
        assert [len(w) for w in waves] == [10, 10, 4]
        assert sum(waves, []) == order

    def test_wave_partition_invalid_size(self, layout):
        with pytest.raises(ValueError):
            wave_partition(unswizzled_order(layout), 0)
