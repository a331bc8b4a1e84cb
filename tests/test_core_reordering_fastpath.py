"""Equivalence suite: index-based reorders vs the per-tile reference oracles.

For all three collectives, the cached-index execution of ``run_*_pipeline``
must produce outputs *bit-identical* to the per-tile/per-row reference loops
in ``tests/oracles/reordering`` -- the index path only permutes differently,
it never changes a value -- and must stay ``np.allclose`` to the plain
collective.
"""

import numpy as np
import pytest

from oracles.reordering import (
    all_to_all_reference,
    allreduce_reference,
    reduce_scatter_reference,
)
from oracles.tiles import gather_tiles, scatter_tiles
from repro.comm.primitives import CollectiveKind
from repro.core.reordering import (
    build_reorder_plan,
    run_all_to_all_pipeline,
    run_allreduce_pipeline,
    run_reduce_scatter_pipeline,
)
from repro.tensor.layout import TileLayout
from repro.tensor.tiles import gather_tiles_indexed, scatter_tiles_indexed, tile_flat_indices


def _grouped_plan(collective, layout, n_gpus, num_groups, rng):
    order = list(rng.permutation(layout.num_tiles))
    step = max(1, -(-layout.num_tiles // num_groups))
    groups = [order[i : i + step] for i in range(0, len(order), step)]
    return build_reorder_plan(collective, layout, groups, n_gpus)


class TestIndexHelpers:
    @pytest.mark.parametrize(
        "layout",
        [
            TileLayout(m=32, n=48, tile_m=8, tile_n=8),
            TileLayout(m=37, n=53, tile_m=8, tile_n=8),  # ragged edges
        ],
    )
    def test_indexed_gather_matches_reference(self, layout, rng):
        matrix = rng.normal(size=(layout.m, layout.n))
        order = list(rng.permutation(layout.num_tiles))
        indices = tile_flat_indices(layout, order)
        np.testing.assert_array_equal(
            gather_tiles_indexed(matrix, indices), gather_tiles(matrix, layout, order)
        )

    def test_indexed_scatter_matches_reference(self, rng):
        layout = TileLayout(m=37, n=53, tile_m=8, tile_n=8)
        order = list(rng.permutation(layout.num_tiles))
        buffer = rng.normal(size=layout.m * layout.n)
        via_reference = np.zeros((layout.m, layout.n))
        scatter_tiles(via_reference, layout, order, buffer)
        via_indices = np.zeros((layout.m, layout.n))
        scatter_tiles_indexed(via_indices, tile_flat_indices(layout, order), buffer)
        np.testing.assert_array_equal(via_indices, via_reference)

    def test_indexed_scatter_rejects_size_mismatch(self, rng):
        layout = TileLayout(m=16, n=16, tile_m=8, tile_n=8)
        indices = tile_flat_indices(layout, [0, 1])
        with pytest.raises(ValueError, match="permutation"):
            scatter_tiles_indexed(np.zeros((16, 16)), indices, np.zeros(3))

    def test_plan_caches_index_arrays(self, rng):
        layout = TileLayout(m=32, n=32, tile_m=8, tile_n=8)
        plan = _grouped_plan(CollectiveKind.ALL_REDUCE, layout, 4, 3, rng)
        assert plan.group_flat_indices(0) is plan.group_flat_indices(0)
        assert plan.group_subtile_indices(1) is plan.group_subtile_indices(1)
        assert plan.group_subtoken_index(2) is plan.group_subtoken_index(2)


class TestAllReduceFastPath:
    @pytest.mark.parametrize(
        "layout",
        [
            TileLayout(m=32, n=48, tile_m=8, tile_n=8),
            TileLayout(m=37, n=53, tile_m=8, tile_n=8),  # ragged edges
        ],
    )
    @pytest.mark.parametrize("num_groups", [1, 3, 7])
    def test_bit_identical_to_reference(self, layout, num_groups, rng):
        plan = _grouped_plan(CollectiveKind.ALL_REDUCE, layout, 4, num_groups, rng)
        matrices = [rng.normal(size=(layout.m, layout.n)) for _ in range(4)]
        fast = run_allreduce_pipeline(matrices, plan)
        reference = allreduce_reference(matrices, plan)
        for fast_out, ref_out in zip(fast.outputs, reference, strict=True):
            np.testing.assert_array_equal(fast_out, ref_out)
        assert fast.allclose()
        assert fast.groups_communicated == plan.num_groups


class TestReduceScatterFastPath:
    @pytest.mark.parametrize("num_groups", [1, 2, 5])
    def test_bit_identical_to_reference(self, num_groups, rng):
        layout = TileLayout(m=64, n=48, tile_m=8, tile_n=8)
        plan = _grouped_plan(CollectiveKind.REDUCE_SCATTER, layout, 4, num_groups, rng)
        matrices = [rng.normal(size=(layout.m, layout.n)) for _ in range(4)]

        def op(x):
            return np.tanh(x) + 0.5

        fast = run_reduce_scatter_pipeline(matrices, plan, elementwise=op)
        reference, owned_rows = reduce_scatter_reference(matrices, plan, elementwise=op)
        for fast_out, ref_out in zip(fast.outputs, reference, strict=True):
            np.testing.assert_array_equal(fast_out, ref_out)
        assert fast.extras["owned_rows"] == owned_rows
        assert fast.allclose()


class TestAllToAllFastPath:
    @pytest.mark.parametrize("tile_n", [6, 7])  # 7 leaves a ragged column block
    def test_bit_identical_to_reference(self, tile_n, rng):
        n = 4
        plans, matrices, destinations = [], [], []
        for src in range(n):
            layout = TileLayout(m=24, n=30, tile_m=4, tile_n=tile_n)
            plans.append(
                _grouped_plan(CollectiveKind.ALL_TO_ALL, layout, n, src + 2, rng)
            )
            matrices.append(rng.normal(size=(24, 30)))
            destinations.append(rng.integers(0, n, size=24))
        fast = run_all_to_all_pipeline(matrices, destinations, plans)
        reference = all_to_all_reference(matrices, destinations, plans)
        for fast_out, ref_out in zip(fast.outputs, reference, strict=True):
            np.testing.assert_array_equal(fast_out, ref_out)
        assert fast.allclose()

    def test_skewed_routing(self, rng):
        # Every token to one destination: other ranks receive empty outputs.
        n = 3
        plans, matrices, destinations = [], [], []
        for _ in range(n):
            layout = TileLayout(m=12, n=16, tile_m=4, tile_n=8)
            plans.append(_grouped_plan(CollectiveKind.ALL_TO_ALL, layout, n, 2, rng))
            matrices.append(rng.normal(size=(12, 16)))
            destinations.append(np.full(12, 1))
        fast = run_all_to_all_pipeline(matrices, destinations, plans)
        reference = all_to_all_reference(matrices, destinations, plans)
        for fast_out, ref_out in zip(fast.outputs, reference, strict=True):
            np.testing.assert_array_equal(fast_out, ref_out)
        assert fast.outputs[0].shape[0] == 0
        assert fast.outputs[1].shape[0] == n * 12
