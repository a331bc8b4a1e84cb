"""Tests for the tile-grid geometry (repro.tensor.layout)."""

import pytest

from repro.tensor.layout import TileLayout


class TestGridGeometry:
    def test_uniform_grid_counts(self):
        layout = TileLayout(m=256, n=512, tile_m=64, tile_n=128)
        assert layout.grid_m == 4
        assert layout.grid_n == 4
        assert layout.num_tiles == 16
        assert layout.is_uniform()

    def test_ragged_grid_rounds_up(self):
        layout = TileLayout(m=100, n=130, tile_m=64, tile_n=64)
        assert layout.grid_m == 2
        assert layout.grid_n == 3
        assert layout.num_tiles == 6
        assert not layout.is_uniform()

    def test_single_tile_grid(self):
        layout = TileLayout(m=16, n=16, tile_m=64, tile_n=64)
        assert layout.num_tiles == 1
        assert layout.tile_shape(0) == (16, 16)

    @pytest.mark.parametrize("m,n,tile_m,tile_n", [(0, 4, 2, 2), (4, 0, 2, 2), (4, 4, 0, 2), (4, 4, 2, -1)])
    def test_invalid_dimensions_rejected(self, m, n, tile_m, tile_n):
        with pytest.raises(ValueError):
            TileLayout(m=m, n=n, tile_m=tile_m, tile_n=tile_n)


class TestIndexConversions:
    def test_coords_round_trip(self):
        layout = TileLayout(m=96, n=96, tile_m=32, tile_n=32)
        for index in range(layout.num_tiles):
            row, col = layout.tile_coords(index)
            assert layout.tile_index(row, col) == index

    def test_tile_index_is_row_major(self):
        layout = TileLayout(m=64, n=96, tile_m=32, tile_n=32)
        assert layout.tile_index(0, 0) == 0
        assert layout.tile_index(0, 2) == 2
        assert layout.tile_index(1, 0) == 3

    def test_out_of_range_index_raises(self):
        layout = TileLayout(m=64, n=64, tile_m=32, tile_n=32)
        with pytest.raises(IndexError):
            layout.tile_coords(4)
        with pytest.raises(IndexError):
            layout.tile_index(2, 0)

    def test_slices_cover_matrix_exactly_once(self):
        layout = TileLayout(m=100, n=70, tile_m=32, tile_n=32)
        covered = [[0] * layout.n for _ in range(layout.m)]
        for t in range(layout.num_tiles):
            rs, cs = layout.tile_slices(t)
            for r in range(rs.start, rs.stop):
                for c in range(cs.start, cs.stop):
                    covered[r][c] += 1
        assert all(all(v == 1 for v in row) for row in covered)

    def test_edge_tile_shape_is_clipped(self):
        layout = TileLayout(m=100, n=70, tile_m=32, tile_n=32)
        last = layout.num_tiles - 1
        rows, cols = layout.tile_shape(last)
        assert rows == 100 - 3 * 32
        assert cols == 70 - 2 * 32
        assert layout.tile_elements(last) == rows * cols
