"""Tests for the tile-by-tile gather/scatter oracle (tests/oracles/tiles.py)."""

import numpy as np
import pytest

from oracles.tiles import (
    extract_tile,
    gather_tiles,
    scatter_tile,
    scatter_tiles,
    split_tile_rows,
)
from repro.tensor.layout import TileLayout


@pytest.fixture
def layout():
    return TileLayout(m=12, n=18, tile_m=4, tile_n=6)


@pytest.fixture
def matrix(layout, rng):
    return rng.standard_normal((layout.m, layout.n))


class TestExtractScatter:
    def test_extract_matches_slice(self, layout, matrix):
        rs, cs = layout.tile_slices(5)
        np.testing.assert_array_equal(extract_tile(matrix, layout, 5), matrix[rs, cs])

    def test_extract_returns_copy(self, layout, matrix):
        tile = extract_tile(matrix, layout, 0)
        tile[0, 0] = 1e9
        assert matrix[0, 0] != 1e9

    def test_scatter_round_trip(self, layout, matrix):
        out = np.zeros_like(matrix)
        for t in range(layout.num_tiles):
            scatter_tile(out, layout, t, extract_tile(matrix, layout, t))
        np.testing.assert_array_equal(out, matrix)

    def test_scatter_wrong_shape_raises(self, layout, matrix):
        with pytest.raises(ValueError):
            scatter_tile(matrix, layout, 0, np.zeros((2, 2)))

    def test_shape_mismatch_raises(self, layout):
        with pytest.raises(ValueError):
            extract_tile(np.zeros((3, 3)), layout, 0)


class TestGatherScatterBuffers:
    def test_gather_concatenates_in_order(self, layout, matrix):
        order = [3, 0, 7]
        buffer = gather_tiles(matrix, layout, order)
        expected = np.concatenate([extract_tile(matrix, layout, t).ravel() for t in order])
        np.testing.assert_array_equal(buffer, expected)

    def test_gather_empty(self, layout, matrix):
        assert gather_tiles(matrix, layout, []).size == 0

    def test_scatter_inverts_gather(self, layout, matrix):
        order = list(reversed(range(layout.num_tiles)))
        buffer = gather_tiles(matrix, layout, order)
        out = np.zeros_like(matrix)
        scatter_tiles(out, layout, order, buffer)
        np.testing.assert_array_equal(out, matrix)

    def test_scatter_buffer_too_short(self, layout, matrix):
        buffer = gather_tiles(matrix, layout, [0])
        with pytest.raises(ValueError):
            scatter_tiles(np.zeros_like(matrix), layout, [0, 1], buffer)

    def test_scatter_buffer_too_long(self, layout, matrix):
        buffer = gather_tiles(matrix, layout, [0, 1])
        with pytest.raises(ValueError):
            scatter_tiles(np.zeros_like(matrix), layout, [0], buffer)

    def test_ragged_layout_round_trip(self, rng):
        layout = TileLayout(m=10, n=13, tile_m=4, tile_n=5)
        matrix = rng.standard_normal((10, 13))
        order = list(range(layout.num_tiles))
        out = np.zeros_like(matrix)
        scatter_tiles(out, layout, order, gather_tiles(matrix, layout, order))
        np.testing.assert_array_equal(out, matrix)


class TestSplitTileRows:
    def test_split_even(self, rng):
        tile = rng.standard_normal((8, 6))
        parts = split_tile_rows(tile, 4)
        assert len(parts) == 4
        np.testing.assert_array_equal(np.concatenate(parts, axis=0), tile)

    def test_split_uneven_raises(self, rng):
        with pytest.raises(ValueError):
            split_tile_rows(rng.standard_normal((6, 4)), 4)

    def test_split_invalid_parts(self, rng):
        with pytest.raises(ValueError):
            split_tile_rows(rng.standard_normal((6, 4)), 0)
