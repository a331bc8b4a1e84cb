"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st

from oracles.ring import ring_all_reduce
from oracles.tiles import gather_tiles, scatter_tiles
from oracles.wave_grouping import enumerate_partitions, from_decisions
from repro.comm.collectives import all_reduce, reduce_scatter_flat
from repro.comm.primitives import CollectiveKind
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.reordering import build_reorder_plan, run_allreduce_pipeline
from repro.core.signaling import GroupAssignment
from repro.core.wave_grouping import WavePartition
from repro.gpu.gemm import GemmShape, GemmTileConfig
from repro.gpu.swizzle import execution_order, wave_partition
from repro.tensor.layout import TileLayout

# Small bounded strategies keep every example fast.
_dims = st.integers(min_value=1, max_value=6)
_tile_dims = st.integers(min_value=1, max_value=5)


@st.composite
def layouts(draw):
    tile_m = draw(_tile_dims)
    tile_n = draw(_tile_dims)
    grid_m = draw(_dims)
    grid_n = draw(_dims)
    ragged_m = draw(st.integers(min_value=0, max_value=max(0, tile_m - 1)))
    ragged_n = draw(st.integers(min_value=0, max_value=max(0, tile_n - 1)))
    m = grid_m * tile_m - ragged_m if grid_m * tile_m - ragged_m > 0 else grid_m * tile_m
    n = grid_n * tile_n - ragged_n if grid_n * tile_n - ragged_n > 0 else grid_n * tile_n
    return TileLayout(m=m, n=n, tile_m=tile_m, tile_n=tile_n)


class TestLayoutProperties:
    @given(layouts())
    def test_tile_elements_sum_to_matrix_size(self, layout):
        total = sum(layout.tile_elements(t) for t in range(layout.num_tiles))
        assert total == layout.m * layout.n

    @given(layouts())
    def test_coords_round_trip(self, layout):
        for t in range(layout.num_tiles):
            r, c = layout.tile_coords(t)
            assert layout.tile_index(r, c) == t

    @given(layouts(), st.integers(min_value=1, max_value=8))
    def test_execution_order_is_permutation(self, layout, swizzle):
        order = execution_order(layout, swizzle)
        assert sorted(order) == list(range(layout.num_tiles))


class TestGatherScatterProperties:
    @given(layouts(), st.randoms(use_true_random=False))
    @hyp_settings(max_examples=40)
    def test_gather_then_scatter_is_identity(self, layout, pyrandom):
        rng = np.random.default_rng(pyrandom.randint(0, 2**31))
        matrix = rng.standard_normal((layout.m, layout.n))
        order = list(range(layout.num_tiles))
        pyrandom.shuffle(order)
        out = np.zeros_like(matrix)
        scatter_tiles(out, layout, order, gather_tiles(matrix, layout, order))
        np.testing.assert_array_equal(out, matrix)


class TestReorderPlanProperties:
    @given(layouts(), st.integers(min_value=1, max_value=8), st.data())
    @hyp_settings(max_examples=40)
    def test_plan_groups_pack_every_tile_once_in_execution_order(self, layout, wave_size, data):
        waves = wave_partition(execution_order(layout, 2), wave_size)
        decisions = data.draw(st.lists(st.booleans(), min_size=len(waves) - 1,
                                       max_size=len(waves) - 1))
        partition = from_decisions(decisions + [True])
        plan = build_reorder_plan(
            CollectiveKind.ALL_REDUCE, layout, partition.group_tiles(waves), 2
        )
        packed = [tile for group in plan.groups for tile in group]
        assert packed == [tile for wave in waves for tile in wave]
        assert sorted(packed) == list(range(layout.num_tiles))
        assert plan.num_groups == partition.num_groups


class TestWavePartitionProperties:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
    def test_partition_round_trips_through_decisions(self, sizes):
        partition = WavePartition.from_sizes(sizes)
        ends = set(partition.boundaries())
        assert from_decisions([w + 1 in ends for w in range(partition.num_waves)]) == partition
        assert partition.boundaries()[-1] == partition.num_waves

    @given(st.integers(min_value=1, max_value=9))
    def test_enumeration_covers_exactly_the_design_space(self, waves):
        partitions = list(enumerate_partitions(waves))
        assert len(partitions) == len({p.group_sizes for p in partitions}) == 2 ** (waves - 1)
        assert all(p.num_waves == waves for p in partitions)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
    def test_equal_groups_cover_all_waves(self, waves, group):
        partition = WavePartition.equal_groups(waves, group)
        assert partition.num_waves == waves
        assert all(size <= group for size in partition.group_sizes[:-1]) or partition.num_groups == 1


class TestCollectiveProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=32),
        st.randoms(use_true_random=False),
    )
    @hyp_settings(max_examples=40)
    def test_ring_allreduce_matches_direct(self, n_ranks, elements, pyrandom):
        rng = np.random.default_rng(pyrandom.randint(0, 2**31))
        buffers = [rng.standard_normal(elements) for _ in range(n_ranks)]
        ring, report = ring_all_reduce(buffers)
        direct = all_reduce(buffers)
        for a, b in zip(ring, direct):
            np.testing.assert_allclose(a, b)
        if n_ranks > 1:
            assert report.volume_factor(elements) <= 2.0

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.randoms(use_true_random=False),
    )
    @hyp_settings(max_examples=40)
    def test_reduce_scatter_chunks_reassemble_to_sum(self, n_ranks, chunk, pyrandom):
        rng = np.random.default_rng(pyrandom.randint(0, 2**31))
        buffers = [rng.standard_normal(n_ranks * chunk) for _ in range(n_ranks)]
        chunks = reduce_scatter_flat(buffers)
        np.testing.assert_allclose(np.concatenate(chunks), sum(buffers))


class TestPipelineProperties:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.randoms(use_true_random=False),
    )
    @hyp_settings(max_examples=25, deadline=None)
    def test_allreduce_pipeline_matches_reference(self, n_gpus, swizzle, wave_size, pyrandom):
        layout = TileLayout(m=12, n=16, tile_m=4, tile_n=4)
        rng = np.random.default_rng(pyrandom.randint(0, 2**31))
        order = execution_order(layout, swizzle)
        waves = wave_partition(order, wave_size * 3)
        # Random partition of the waves.
        sizes = []
        remaining = len(waves)
        while remaining:
            take = min(remaining, pyrandom.randint(1, 3))
            sizes.append(take)
            remaining -= take
        partition = WavePartition.from_sizes(sizes)
        groups = partition.group_tiles(waves)
        plan = build_reorder_plan(CollectiveKind.ALL_REDUCE, layout, groups, n_gpus)
        assignment = GroupAssignment.build(partition, waves)
        matrices = [rng.standard_normal((layout.m, layout.n)) for _ in range(n_gpus)]
        result = run_allreduce_pipeline(matrices, plan, assignment, order)
        assert result.allclose()


@st.composite
def executor_cases(draw, device, topology):
    """A small problem with ragged edges and a random partition of its waves."""
    problem = OverlapProblem(
        shape=GemmShape(m=draw(st.integers(1, 40)), n=draw(st.integers(1, 40)), k=64),
        device=device,
        topology=topology,
        collective=CollectiveKind.ALL_REDUCE,
        gemm_config=GemmTileConfig(
            tile_m=draw(st.integers(1, 12)),
            tile_n=draw(st.integers(1, 12)),
            swizzle_size=draw(st.integers(0, 8)),
        ),
        dtype_bytes=draw(st.sampled_from([1, 2, 4])),
        imbalance=draw(st.floats(1.0, 2.0)),
    )
    executor = OverlapExecutor(problem, OverlapSettings())
    decisions = draw(st.lists(st.booleans(), min_size=executor.num_waves() - 1,
                              max_size=executor.num_waves() - 1))
    return executor, from_decisions([*decisions, True])


class TestWaveTableProperties:
    """The executor's per-wave payloads and signal times against a tile-by-tile
    derivation over the group assignment."""

    @given(data=st.data())
    @hyp_settings(max_examples=100, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_conserved_and_group_signals_at_last_tile(
        self, tiny_device, tiny_topology, data
    ):
        executor, partition = data.draw(executor_cases(tiny_device, tiny_topology))
        problem, layout = executor.problem, executor.gemm_contended.layout
        groups = executor.assignment(partition).group_tiles

        payloads = executor.group_payload_bytes(partition)
        per_tile = [sum(layout.tile_elements(t) for t in tiles) * problem.dtype_bytes
                    for tiles in groups]
        assert payloads.tolist() == per_tile
        assert sum(per_tile) == problem.output_bytes()

        wave_end = (
            executor.gemm_contended.wave_completion_times(executor.compute_sms)
            * problem.imbalance
            + problem.device.kernel_launch_seconds
        )
        wave_of = {t: w for w, tiles in enumerate(executor.wave_tiles()) for t in tiles}
        ready = executor.simulate(partition).group_compute_ready
        for group, tiles in enumerate(groups):
            last = max(wave_end[wave_of[t]] for t in tiles)
            assert ready[group] == last + executor.settings.signal_poll_s
