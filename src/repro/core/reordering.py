"""Pre/post-communication reordering plans and their functional execution.

This module is the correctness heart of the reproduction.  For each collective
primitive it builds the reordering plan described in Sec. 3.3 / Fig. 7 --
which unit (tile, sub-tile, sub-token) is packed where in the per-group
communication buffer -- and executes the whole pipeline on NumPy data:

    GEMM outputs (one partial matrix per GPU)
      -> pre-communication reorder into contiguous per-group buffers
      -> NCCL-style collective of each group (functional NumPy collectives)
      -> post-communication reorder restoring the logical order

The result must match the plain, non-overlapped execution of the same
collective -- this is what the paper's artifact experiment E1 checks with
``torch.allclose`` and what the test-suite checks here.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.comm.collectives import all_reduce, all_to_all, all_to_all_rows, reduce_scatter_flat
from repro.comm.primitives import CollectiveKind
from repro.core.signaling import CountingTable, GroupAssignment
from repro.tensor.layout import TileLayout
from repro.tensor.tiles import gather_tiles_indexed, scatter_tiles_indexed, tile_flat_indices


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubtokenIndex:
    """Precomputed sub-token routing index of one wave group (All-to-All).

    One "sub-token" is the segment of one matrix row inside one tile.  Arrays
    are ordered tile-major then row-major, matching the pack order of the
    per-row reference loop:

    * ``rows[t]`` / ``col_blocks[t]`` / ``lengths[t]`` -- source row, tile
      column block and element count of sub-token ``t``,
    * ``flat_indices`` -- flat matrix index of every sub-token element,
      concatenated in sub-token order,
    * ``token_of_elem`` -- sub-token id of every entry of ``flat_indices``
      (``np.repeat`` expansion used to mask elements by destination GPU).
    """

    rows: np.ndarray
    col_blocks: np.ndarray
    lengths: np.ndarray
    flat_indices: np.ndarray
    token_of_elem: np.ndarray


@dataclass(frozen=True)
class ReorderPlan:
    """Full reordering plan of one overlapped operator.

    ``groups[g]`` is the packing order of wave group ``g``'s communication
    buffer: its tiles in execution order, so a tile's buffer position is its
    offset in that tuple.  Beyond the packing orders, the plan lazily
    precomputes (and caches) the flat index permutations that turn every
    pre/post-communication reorder into a single ``np.take`` / fancy-index
    assignment.  The per-tile/per-row loops these indices replace live only
    in the test oracles (``tests/oracles/tiles.py`` and
    ``tests/oracles/reordering.py``), which the differential suite holds the
    cached indices to.
    """

    collective: CollectiveKind
    layout: TileLayout
    n_gpus: int
    groups: tuple[tuple[int, ...], ...]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    # -- cached index permutations (one gather/scatter per reorder) -----------

    def _index_cache(self) -> dict:
        cache = self.__dict__.get("_cached_indices")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cached_indices", cache)
        return cache

    def group_flat_indices(self, group_index: int) -> np.ndarray:
        """Flat matrix indices of one group's tile-level packing order.

        ``matrix.flat[result]`` is the group's tiles in pack order, each
        flattened row-major; computed once per (plan, group) and reused by
        every pipeline execution.
        """
        cache = self._index_cache()
        key = ("tile", group_index)
        if key not in cache:
            cache[key] = tile_flat_indices(self.layout, self.groups[group_index])
        return cache[key]

    def group_subtile_indices(self, group_index: int) -> np.ndarray:
        """Flat matrix indices of one group's ReduceScatter packing order.

        The NCCL ReduceScatter buffer holds, for each destination GPU ``k``,
        the ``k``-th row block of every tile in the group; the returned
        permutation is ordered ``k``-major so that slicing it into ``n_gpus``
        equal chunks yields each GPU's sub-tile indices.
        """
        cache = self._index_cache()
        key = ("subtile", group_index)
        if key not in cache:
            sub_rows = self.layout.tile_m // self.n_gpus
            order = self.groups[group_index]
            cache[key] = np.concatenate(
                [
                    tile_flat_indices(self.layout, order, row_limit=(k * sub_rows, (k + 1) * sub_rows))
                    for k in range(self.n_gpus)
                ]
            )
        return cache[key]

    def group_subtile_rows(self, group_index: int) -> list[list[int]]:
        """Matrix rows GPU ``k`` owns after ReduceScatter of one group."""
        cache = self._index_cache()
        key = ("subtile_rows", group_index)
        if key not in cache:
            sub_rows = self.layout.tile_m // self.n_gpus
            rows_per_gpu = []
            for k in range(self.n_gpus):
                rows: list[int] = []
                for tile in self.groups[group_index]:
                    rs, _ = self.layout.tile_slices(tile)
                    rows.extend(range(rs.start + k * sub_rows, rs.start + (k + 1) * sub_rows))
                rows_per_gpu.append(rows)
            cache[key] = rows_per_gpu
        return cache[key]

    def group_subtoken_index(self, group_index: int) -> SubtokenIndex:
        """Precomputed sub-token index of one group (All-to-All packing)."""
        cache = self._index_cache()
        key = ("subtoken", group_index)
        if key not in cache:
            order = self.groups[group_index]
            rows_parts, cb_parts, len_parts = [], [], []
            for tile in order:
                rs, cs = self.layout.tile_slices(tile)
                _, col_block = self.layout.tile_coords(tile)
                tile_rows = np.arange(rs.start, rs.stop, dtype=np.int64)
                rows_parts.append(tile_rows)
                cb_parts.append(np.full(tile_rows.size, col_block, dtype=np.int64))
                len_parts.append(np.full(tile_rows.size, cs.stop - cs.start, dtype=np.int64))
            rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=np.int64)
            lengths = np.concatenate(len_parts) if len_parts else np.empty(0, dtype=np.int64)
            cache[key] = SubtokenIndex(
                rows=rows,
                col_blocks=np.concatenate(cb_parts) if cb_parts else np.empty(0, dtype=np.int64),
                lengths=lengths,
                # Row-major within each tile, tiles in pack order: the
                # group's tile-level packing permutation.
                flat_indices=tile_flat_indices(self.layout, order),
                token_of_elem=np.repeat(np.arange(rows.size, dtype=np.int64), lengths),
            )
        return cache[key]

    def validate(self) -> None:
        """Check that the plan covers every tile exactly once."""
        tiles = [tile for group in self.groups for tile in group]
        if sorted(tiles) != list(range(self.layout.num_tiles)):
            raise ValueError("reorder plan does not cover every tile exactly once")


def build_reorder_plan(
    collective: CollectiveKind,
    layout: TileLayout,
    group_tiles: Sequence[Sequence[int]],
    n_gpus: int,
) -> ReorderPlan:
    """Build the reordering plan for a wave-group assignment.

    ``group_tiles`` lists the tiles of each group in execution order (as
    produced by :meth:`WavePartition.group_tiles`); the packing order within a
    group is simply the execution order, as the paper notes the relative order
    inside a wave is irrelevant.
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    groups = tuple(tuple(int(tile) for tile in tiles) for tiles in group_tiles)
    plan = ReorderPlan(collective=collective, layout=layout, n_gpus=n_gpus, groups=groups)
    plan.validate()
    return plan


# ---------------------------------------------------------------------------
# Functional execution -- AllReduce
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    """Output of a functional overlap execution."""

    outputs: list[np.ndarray]
    reference: list[np.ndarray]
    groups_communicated: int = 0
    extras: dict = field(default_factory=dict)

    def max_abs_error(self) -> float:
        return float(
            max(
                np.max(np.abs(out - ref)) if out.size else 0.0
                for out, ref in zip(self.outputs, self.reference)
            )
        )

    def allclose(self, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        return all(
            np.allclose(out, ref, rtol=rtol, atol=atol)
            for out, ref in zip(self.outputs, self.reference)
        )


def _replay_signals(assignment: GroupAssignment, execution_order: Sequence[int]) -> CountingTable:
    """Replay the counting table over the execution order and return it.

    Ensures every group the pipeline communicates has actually been signalled,
    i.e. the data dependency is respected.
    """
    table = assignment.counting_table()
    for tile in execution_order:
        if tile in assignment.group_of_tile:
            table.record_tile(assignment.group_of_tile[tile])
    return table


def run_allreduce_pipeline(
    matrices: Sequence[np.ndarray],
    plan: ReorderPlan,
    assignment: GroupAssignment | None = None,
    execution_order: Sequence[int] | None = None,
) -> PipelineResult:
    """AllReduce with tile-level reordering (Fig. 7(d)).

    Every GPU contributes a partial GEMM output of identical shape; the result
    on every GPU is the element-wise sum, in the original layout.  Both
    reorders use the plan's cached flat index permutation (one ``np.take`` /
    fancy-index assignment per group).
    """
    layout = plan.layout
    for matrix in matrices:
        if matrix.shape != (layout.m, layout.n):
            raise ValueError("matrix shape does not match plan layout")
    reference = all_reduce(matrices)

    table = None
    if assignment is not None and execution_order is not None:
        table = _replay_signals(assignment, execution_order)

    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    outputs = [np.zeros((layout.m, layout.n), dtype=np.float64) for _ in matrices]
    for group_index in range(plan.num_groups):
        if table is not None:
            table.assert_ready(group_index)
        # Pre-communication reorder: pack the group's tiles contiguously.
        indices = plan.group_flat_indices(group_index)
        buffers = [gather_tiles_indexed(m, indices) for m in inputs]
        # Communication-agnostic NCCL call on the contiguous buffers.
        reduced = all_reduce(buffers)
        # Post-communication reorder: scatter tiles back to their addresses.
        for gpu, out in enumerate(outputs):
            scatter_tiles_indexed(out, indices, reduced[gpu])
    return PipelineResult(outputs=outputs, reference=reference, groups_communicated=plan.num_groups)


# ---------------------------------------------------------------------------
# Functional execution -- ReduceScatter (+ element-wise + AllGather)
# ---------------------------------------------------------------------------


def _check_reduce_scatter_layout(layout: TileLayout, n_gpus: int) -> None:
    if not layout.is_uniform():
        raise ValueError("ReduceScatter reordering requires uniform tiles (no ragged edge)")
    if layout.tile_m % n_gpus != 0:
        raise ValueError(
            f"tile_m={layout.tile_m} must be divisible by the GPU count {n_gpus} "
            "to split tiles into per-GPU sub-tiles"
        )
    if layout.m % n_gpus != 0:
        raise ValueError("M must be divisible by the GPU count for ReduceScatter")


def run_reduce_scatter_pipeline(
    matrices: Sequence[np.ndarray],
    plan: ReorderPlan,
    elementwise: Callable[[np.ndarray], np.ndarray] | None = None,
    assignment: GroupAssignment | None = None,
    execution_order: Sequence[int] | None = None,
) -> PipelineResult:
    """ReduceScatter with sub-tile reordering, followed by the element-wise
    operator and the AllGather + row exchange that restore the layout
    (Fig. 7(e)).

    The returned ``outputs`` are the per-GPU results *after* AllGather and the
    local row exchange; the reference is the plain (non-overlapped)
    ReduceScatter -> element-wise -> AllGather pipeline.  ``extras`` carries
    the per-GPU rows owned between RS and AG, so tests can verify that every
    owned row is complete on a single GPU (the property the element-wise
    operator needs).  The sub-tile buffers are packed and unpacked through
    the plan's cached index permutation.
    """
    layout = plan.layout
    n = plan.n_gpus
    _check_reduce_scatter_layout(layout, n)
    if len(matrices) != n:
        raise ValueError(f"expected {n} per-GPU matrices, got {len(matrices)}")
    op = elementwise if elementwise is not None else (lambda x: x)

    # Reference: standard RS along rows, element-wise on each shard, AllGather.
    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    total = np.sum(np.stack(inputs), axis=0)
    reference_full = op(total)
    reference = [reference_full.copy() for _ in range(n)]

    table = None
    if assignment is not None and execution_order is not None:
        table = _replay_signals(assignment, execution_order)

    owned_values = [np.zeros((layout.m, layout.n), dtype=np.float64) for _ in range(n)]
    owned_rows: list[set[int]] = [set() for _ in range(n)]

    for group_index in range(plan.num_groups):
        if table is not None:
            table.assert_ready(group_index)
        # Pre-communication reorder: for NCCL ReduceScatter the buffer is laid
        # out so that the k-th contiguous chunk holds the k-th sub-tile of
        # every tile in the group.
        indices = plan.group_subtile_indices(group_index)
        buffers = [gather_tiles_indexed(matrix, indices) for matrix in inputs]
        received = reduce_scatter_flat(buffers)
        # Unpack: GPU k received the reduced k-th sub-tile of every tile.
        chunk_size = indices.size // n
        group_rows = plan.group_subtile_rows(group_index)
        for k in range(n):
            scatter_tiles_indexed(
                owned_values[k], indices[k * chunk_size : (k + 1) * chunk_size], received[k]
            )
            owned_rows[k].update(group_rows[k])

    # Element-wise operator on complete rows, then AllGather + row exchange.
    shard_rows = [sorted(rows) for rows in owned_rows]
    shards = [op(owned_values[k][rows, :]) if rows else np.empty((0, layout.n)) for k, rows in enumerate(shard_rows)]
    gathered = np.concatenate(shards, axis=0)
    row_order = [r for rows in shard_rows for r in rows]
    outputs = []
    for _ in range(n):
        restored = np.empty_like(gathered)
        restored[row_order, :] = gathered
        outputs.append(restored)
    extras = {"owned_rows": shard_rows, "pre_allgather_shards": shards}
    return PipelineResult(
        outputs=outputs, reference=reference, groups_communicated=plan.num_groups, extras=extras
    )


# ---------------------------------------------------------------------------
# Functional execution -- All-to-All
# ---------------------------------------------------------------------------


def run_all_to_all_pipeline(
    matrices: Sequence[np.ndarray],
    destinations: Sequence[np.ndarray],
    plans: Sequence[ReorderPlan],
    assignments: Sequence[GroupAssignment] | None = None,
    execution_orders: Sequence[Sequence[int]] | None = None,
) -> PipelineResult:
    """All-to-All with sub-token reordering (Fig. 7(f)).

    Every source GPU owns a token matrix (its local GEMM output) plus a
    destination GPU per token; tokens must arrive at their destination as
    complete rows, ordered by (source GPU, source row).  Each source GPU may
    have its own tile layout and wave grouping (``plans[src]``).  Each round's
    memory pools are packed through the plans' cached sub-token indices (one
    masked gather per destination).
    """
    n = len(matrices)
    if len(destinations) != n or len(plans) != n:
        raise ValueError("matrices, destinations and plans must have equal length")

    reference = all_to_all_rows(matrices, destinations)

    tables = [None] * n
    if assignments is not None and execution_orders is not None:
        tables = [
            _replay_signals(assignment, order)
            for assignment, order in zip(assignments, execution_orders)
        ]

    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    dest_arrays = [np.asarray(d) for d in destinations]

    max_groups = max(plan.num_groups for plan in plans)
    outputs = _all_to_all_indexed(inputs, dest_arrays, plans, tables, max_groups)
    return PipelineResult(outputs=outputs, reference=reference, groups_communicated=max_groups)


def _all_to_all_indexed(
    inputs: list[np.ndarray],
    dest_arrays: list[np.ndarray],
    plans: Sequence[ReorderPlan],
    tables: Sequence[CountingTable | None],
    max_groups: int,
) -> list[np.ndarray]:
    """Index-based All-to-All execution.

    Per round and source, sub-tokens are selected by destination with one
    mask over the plan's precomputed :class:`SubtokenIndex` and gathered with
    one ``np.take``.  The receive side exploits that the flat indices are
    shared knowledge: each destination scatters the incoming buffer straight
    into a per-source landing matrix at the *source* coordinates, so tokens
    reassemble with no per-token Python work.  Element counts per source row
    track completeness (a complete token has received ``layout.n`` elements).
    """
    n = len(inputs)
    land = [[np.zeros(plans[src].layout.m * plans[src].layout.n) for src in range(n)] for _ in range(n)]
    received_elems = [[np.zeros(plans[src].layout.m, dtype=np.int64) for src in range(n)] for _ in range(n)]

    for group_round in range(max_groups):
        payload: list[list[np.ndarray]] = [[np.empty(0) for _ in range(n)] for _ in range(n)]
        # (rows, lengths, flat indices) per packed pool; the indices travel as
        # shared knowledge, like the mapping tables on the real system.
        meta: list[list[tuple | None]] = [[None for _ in range(n)] for _ in range(n)]
        for src in range(n):
            plan = plans[src]
            if group_round >= plan.num_groups:
                continue
            if tables[src] is not None:
                tables[src].assert_ready(group_round)
            index = plan.group_subtoken_index(group_round)
            token_dst = dest_arrays[src][index.rows]
            for dst in range(n):
                token_mask = token_dst == dst
                if not token_mask.any():
                    continue
                elem_mask = token_mask[index.token_of_elem]
                selected = index.flat_indices[elem_mask]
                payload[src][dst] = gather_tiles_indexed(inputs[src], selected)
                meta[src][dst] = (index.rows[token_mask], index.lengths[token_mask], selected)
        received = all_to_all(payload)
        for dst in range(n):
            for src in range(n):
                if meta[src][dst] is None:
                    continue
                rows, lengths, selected = meta[src][dst]
                scatter_tiles_indexed(land[dst][src], selected, received[dst][src])
                np.add.at(received_elems[dst][src], rows, lengths)

    outputs = []
    for dst in range(n):
        parts = []
        for src in range(n):
            layout = plans[src].layout
            counts = received_elems[dst][src]
            partial = np.flatnonzero((counts > 0) & (counts != layout.n))
            if partial.size:
                raise ValueError(
                    f"token (src={src}, row={int(partial[0])}) arrived incomplete at GPU {dst}"
                )
            complete = np.flatnonzero(counts == layout.n)
            if complete.size:
                parts.append(land[dst][src].reshape(layout.m, layout.n)[complete])
        width = plans[0].layout.n
        outputs.append(np.concatenate(parts) if parts else np.empty((0, width)))
    return outputs

