"""Correctness of the AllReduce reordering pipeline (artifact claim C1)."""

import numpy as np
import pytest

from repro.comm.collectives import all_reduce
from repro.comm.primitives import CollectiveKind
from repro.core.reordering import build_reorder_plan, run_allreduce_pipeline
from repro.core.signaling import GroupAssignment
from repro.core.wave_grouping import WavePartition
from repro.gpu.swizzle import swizzled_order, wave_partition
from repro.tensor.layout import TileLayout


def make_plan(layout, partition, swizzle=2, wave_size=6, n_gpus=4):
    order = swizzled_order(layout, swizzle)
    wave_tiles = wave_partition(order, wave_size)
    groups = partition.group_tiles(wave_tiles)
    plan = build_reorder_plan(CollectiveKind.ALL_REDUCE, layout, groups, n_gpus)
    assignment = GroupAssignment.build(partition, wave_tiles)
    return plan, assignment, order


class TestAllReducePipeline:
    @pytest.mark.parametrize("partition_sizes", [(4,), (1, 1, 1, 1), (1, 2, 1), (2, 2)])
    def test_matches_reference_for_all_partitions(self, rng, small_layout, partition_sizes):
        partition = WavePartition(partition_sizes)
        plan, assignment, order = make_plan(small_layout, partition)
        matrices = [rng.standard_normal((32, 48)) for _ in range(4)]
        result = run_allreduce_pipeline(matrices, plan, assignment, order)
        assert result.allclose()
        assert result.groups_communicated == partition.num_groups

    @pytest.mark.parametrize("n_gpus", [2, 3, 8])
    def test_different_gpu_counts(self, rng, small_layout, n_gpus):
        partition = WavePartition((2, 2))
        plan, assignment, order = make_plan(small_layout, partition, n_gpus=n_gpus)
        matrices = [rng.standard_normal((32, 48)) for _ in range(n_gpus)]
        result = run_allreduce_pipeline(matrices, plan, assignment, order)
        assert result.allclose()

    @pytest.mark.parametrize("swizzle", [1, 2, 3, 6])
    def test_any_swizzle_order(self, rng, small_layout, swizzle):
        partition = WavePartition((1, 3))
        plan, assignment, order = make_plan(small_layout, partition, swizzle=swizzle)
        matrices = [rng.standard_normal((32, 48)) for _ in range(4)]
        assert run_allreduce_pipeline(matrices, plan, assignment, order).allclose()

    def test_ragged_layout(self, rng):
        layout = TileLayout(m=30, n=44, tile_m=8, tile_n=8)  # ragged edges
        order = swizzled_order(layout, 2)
        waves = wave_partition(order, 6)
        partition = WavePartition.per_wave(len(waves))
        groups = partition.group_tiles(waves)
        plan = build_reorder_plan(CollectiveKind.ALL_REDUCE, layout, groups, 4)
        matrices = [rng.standard_normal((30, 44)) for _ in range(4)]
        result = run_allreduce_pipeline(matrices, plan)
        assert result.allclose()

    def test_reference_is_plain_allreduce(self, rng, small_layout):
        partition = WavePartition((4,))
        plan, _, _ = make_plan(small_layout, partition)
        matrices = [rng.standard_normal((32, 48)) for _ in range(4)]
        result = run_allreduce_pipeline(matrices, plan)
        for ref, direct in zip(result.reference, all_reduce(matrices)):
            np.testing.assert_allclose(ref, direct)

    def test_output_is_not_input(self, rng, small_layout):
        # The pipeline writes a fresh output buffer; inputs stay partial sums.
        partition = WavePartition((2, 2))
        plan, _, _ = make_plan(small_layout, partition)
        matrices = [rng.standard_normal((32, 48)) for _ in range(4)]
        originals = [m.copy() for m in matrices]
        run_allreduce_pipeline(matrices, plan)
        for m, o in zip(matrices, originals):
            np.testing.assert_array_equal(m, o)

    def test_shape_mismatch_rejected(self, rng, small_layout):
        partition = WavePartition((4,))
        plan, _, _ = make_plan(small_layout, partition)
        with pytest.raises(ValueError):
            run_allreduce_pipeline([rng.standard_normal((8, 8))] * 4, plan)

    def test_plan_must_cover_all_tiles(self, small_layout):
        with pytest.raises(ValueError):
            build_reorder_plan(CollectiveKind.ALL_REDUCE, small_layout, [[0, 1]], 4)


class TestReorderPlanGroups:
    """``ReorderPlan.groups``: each group's packing order, i.e. the buffer
    position of every tile."""

    def test_groups_are_a_global_permutation(self, small_layout):
        partition = WavePartition((1, 2, 1))
        plan, _, _ = make_plan(small_layout, partition)
        packed = [tile for group in plan.groups for tile in group]
        assert len(packed) == small_layout.num_tiles
        assert sorted(packed) == list(range(small_layout.num_tiles))

    def test_groups_pack_tiles_in_execution_order(self, small_layout):
        partition = WavePartition((1, 2, 1))
        plan, _, order = make_plan(small_layout, partition)
        assert plan.num_groups == partition.num_groups
        assert [len(group) for group in plan.groups] == [6, 12, 6]
        assert [tile for group in plan.groups for tile in group] == list(order)

    def test_duplicate_tile_rejected(self, small_layout):
        tiles = list(range(small_layout.num_tiles))
        with pytest.raises(ValueError, match="exactly once"):
            build_reorder_plan(
                CollectiveKind.ALL_REDUCE, small_layout, [tiles[:12], tiles[11:-1]], 4
            )

    def test_non_positive_gpu_count_rejected(self, small_layout):
        tiles = list(range(small_layout.num_tiles))
        with pytest.raises(ValueError, match="n_gpus"):
            build_reorder_plan(CollectiveKind.ALL_REDUCE, small_layout, [tiles], 0)

    def test_groups_are_int_tuples(self, small_layout):
        order = np.arange(small_layout.num_tiles)[::-1]
        plan = build_reorder_plan(
            CollectiveKind.ALL_REDUCE, small_layout, [order[:10], order[10:]], 4
        )
        assert plan.groups == (tuple(range(23, 13, -1)), tuple(range(13, -1, -1)))
        assert all(type(tile) is int for group in plan.groups for tile in group)

    def test_tile_buffer_position_is_its_offset_in_the_group(self, rng, small_layout):
        partition = WavePartition((2, 2))
        plan, _, _ = make_plan(small_layout, partition)
        matrix = rng.standard_normal((32, 48))
        size = small_layout.tile_m * small_layout.tile_n
        for index, group in enumerate(plan.groups):
            buffer = matrix.flat[plan.group_flat_indices(index)]
            for offset, tile in enumerate(group):
                rows, cols = small_layout.tile_slices(tile)
                np.testing.assert_array_equal(
                    buffer[offset * size : (offset + 1) * size], matrix[rows, cols].ravel()
                )
