"""Tests for block swizzling (repro.gpu.swizzle)."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oracles.swizzle import swizzled_order_reference
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem
from repro.core.executor import OverlapExecutor
from repro.core.wave_grouping import WavePartition
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape
from repro.gpu.swizzle import (
    execution_order,
    launch_positions,
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
        assert unswizzled_order(layout).tolist() == list(range(24))

    def test_swizzled_is_permutation(self, layout):
        for size in (1, 2, 3, 5, 6, 10):
            assert sorted(swizzled_order(layout, size)) == list(range(layout.num_tiles))

    def test_swizzle_one_is_column_major(self, layout):
        order = swizzled_order(layout, 1)
        # First grid column (col_block 0) visited top to bottom.
        assert order[: layout.grid_m].tolist() == [
            layout.tile_index(r, 0) for r in range(layout.grid_m)
        ]

    def test_swizzle_larger_than_grid_is_row_major(self, layout):
        row_major = unswizzled_order(layout).tolist()
        assert swizzled_order(layout, layout.grid_n).tolist() == row_major
        assert swizzled_order(layout, layout.grid_n + 5).tolist() == row_major

    def test_swizzle_two_panel_pattern(self):
        # Fig. 2(b): 2x3 grid with swizzle 2 visits the first two columns of
        # both rows before the last column.
        layout = TileLayout(m=16, n=24, tile_m=8, tile_n=8)
        order = swizzled_order(layout, 2)
        assert order.tolist() == [0, 1, 3, 4, 2, 5]

    def test_execution_order_dispatch(self, layout):
        row_major = unswizzled_order(layout).tolist()
        assert execution_order(layout, None).tolist() == row_major
        assert execution_order(layout, 0).tolist() == row_major
        assert execution_order(layout, 2).tolist() == swizzled_order(layout, 2).tolist()

    def test_orders_are_int64_index_arrays(self, layout):
        for order in (unswizzled_order(layout), swizzled_order(layout, 4)):
            assert isinstance(order, np.ndarray) and order.dtype == np.int64

    def test_invalid_swizzle_size(self, layout):
        with pytest.raises(ValueError):
            swizzled_order(layout, -1)


def address_discontiguity(order: np.ndarray, window: int) -> float:
    """Fraction of adjacent pairs in the first ``window`` launched tiles that
    are *not* adjacent in address order (0: the wave is one contiguous block)."""
    if window < 2:
        return 0.0
    steps = np.diff(order[:window])
    return int(np.count_nonzero(steps != 1)) / len(steps)


class TestDiscontiguity:
    def test_row_major_first_wave_is_contiguous(self, layout):
        order = unswizzled_order(layout)
        assert address_discontiguity(order, window=6) == 0.0

    def test_swizzled_first_wave_is_discontiguous(self, layout):
        order = swizzled_order(layout, 2)
        assert address_discontiguity(order, window=8) > 0.0

    def test_small_window(self, layout):
        assert address_discontiguity(unswizzled_order(layout), window=1) == 0.0


class TestWaves:
    def test_wave_partition_sizes(self, layout):
        order = swizzled_order(layout, 2)
        waves = wave_partition(order, wave_size=10)
        assert [len(w) for w in waves] == [10, 10, 4]
        assert sum(waves, []) == order.tolist()

    def test_waves_hold_python_ints(self, layout):
        # The functional reorder path and --json payloads never see NumPy scalars.
        waves = wave_partition(swizzled_order(layout, 2), wave_size=7)
        assert all(type(tile) is int for wave in waves for tile in wave)

    def test_wave_partition_invalid_size(self, layout):
        with pytest.raises(ValueError):
            wave_partition(unswizzled_order(layout), 0)


@st.composite
def _layouts(draw):
    """1-40 tiles per side, with ragged right and bottom edges."""
    tile_m, tile_n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    grid_m, grid_n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    m = grid_m * tile_m - draw(st.integers(0, tile_m - 1))
    n = grid_n * tile_n - draw(st.integers(0, tile_n - 1))
    return TileLayout(m=m, n=n, tile_m=tile_m, tile_n=tile_n)


class TestMatchesOracle:
    """The panel blocks against the tile-by-tile triple loop."""

    @hyp_settings(max_examples=150, deadline=None)
    @given(_layouts(), st.data())
    def test_random_layouts(self, layout, data):
        swizzle = data.draw(st.integers(1, layout.grid_n + 3), label="swizzle")
        order = swizzled_order(layout, swizzle)
        assert order.tolist() == swizzled_order_reference(layout, swizzle)

    @pytest.mark.parametrize("swizzle", [1, 2, 3, 5, 64, 67])
    def test_paper_grid(self, swizzle):
        layout = TileLayout(m=2048, n=8192, tile_m=128, tile_n=128)
        order = swizzled_order(layout, swizzle)
        assert order.tolist() == swizzled_order_reference(layout, swizzle)


class TestLaunchPositions:
    """``launch_positions`` inverts the launch order on every tile."""

    @hyp_settings(max_examples=150, deadline=None)
    @given(_layouts(), st.data())
    def test_inverts_the_order(self, layout, data):
        swizzle = data.draw(st.integers(0, layout.grid_n + 3), label="swizzle")
        order = execution_order(layout, swizzle)
        if swizzle:
            assert order.tolist() == swizzled_order(layout, swizzle).tolist()
        tiles = np.arange(layout.num_tiles)
        positions = launch_positions(layout, swizzle, tiles)
        assert positions.dtype == np.int64
        assert order[positions].tolist() == tiles.tolist()
        assert launch_positions(layout, swizzle, order).tolist() == tiles.tolist()

    @pytest.mark.parametrize("swizzle", [None, 0, 1, 3, 64, 67])
    def test_paper_grid_subset(self, swizzle):
        layout = TileLayout(m=2048, n=8192, tile_m=128, tile_n=128)
        order = execution_order(layout, swizzle)
        tiles = np.array([0, 63, 64, 700, 1023])
        assert order[launch_positions(layout, swizzle, tiles)].tolist() == tiles.tolist()


class TestExecutorReadsTheArray:
    def test_first_simulate_indexes_no_tile(self, monkeypatch):
        # The executor's per-wave bytes read the order as an array, so no
        # TileLayout.tile_index call is made, where the loop made one per tile.
        problem = OverlapProblem(
            shape=GemmShape(3328, 8192, 4096),
            device=RTX_4090,
            topology=rtx4090_pcie(4),
            collective=CollectiveKind.ALL_REDUCE,
        )
        calls = []
        tile_index = TileLayout.tile_index

        def counting(layout, row_block, col_block):
            calls.append((row_block, col_block))
            return tile_index(layout, row_block, col_block)

        monkeypatch.setattr(TileLayout, "tile_index", counting)
        executor = OverlapExecutor(problem)
        assert executor.gemm_contended.num_tiles == 1664
        executor.simulate(WavePartition.per_wave(executor.num_waves()))
        assert calls == []

    @pytest.mark.parametrize("m", [3328, 3300])
    def test_pricing_builds_no_launch_order(self, monkeypatch, m):
        # Per-wave bytes come from the edge tiles' launch positions, so
        # pricing never builds the swizzled order, ragged edge or not.
        from repro.core.overlap import price_plan
        from repro.core.tuner import PredictiveTuner

        problem = OverlapProblem(
            shape=GemmShape(m, 8190, 4096),
            device=RTX_4090,
            topology=rtx4090_pcie(4),
            collective=CollectiveKind.ALL_REDUCE,
        )
        tuning = PredictiveTuner().tune(problem)

        def forbidden(*args, **kwargs):
            raise AssertionError("pricing built the launch order")

        monkeypatch.setattr("repro.gpu.gemm.execution_order", forbidden)
        priced = price_plan(problem, tuning)
        assert priced.overlap_latency <= priced.non_overlap_latency * (1 + 1e-12)
