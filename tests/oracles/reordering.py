"""Per-tile and per-row reorder loops behind the functional pipelines.

:mod:`repro.core.reordering` packs and unpacks every communication buffer
through cached flat index permutations.  These oracles realize the same
pre/post-communication reorders one tile (ReduceScatter: one sub-tile, All-
to-All: one row segment) at a time, exactly as Fig. 7 draws them, so the
index path can be asserted bit-identical to them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from oracles.tiles import gather_tiles, scatter_tiles
from repro.comm.collectives import all_reduce, all_to_all, reduce_scatter_flat
from repro.core.reordering import ReorderPlan


def allreduce_reference(matrices: Sequence[np.ndarray], plan: ReorderPlan) -> list[np.ndarray]:
    """Per-GPU outputs of :func:`run_allreduce_pipeline`, tile by tile."""
    layout = plan.layout
    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    outputs = [np.zeros((layout.m, layout.n), dtype=np.float64) for _ in matrices]
    for group in plan.groups:
        buffers = [gather_tiles(m, layout, group) for m in inputs]
        reduced = all_reduce(buffers)
        for gpu, out in enumerate(outputs):
            scatter_tiles(out, layout, group, reduced[gpu])
    return outputs


def reduce_scatter_reference(
    matrices: Sequence[np.ndarray],
    plan: ReorderPlan,
    elementwise: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[list[np.ndarray], list[list[int]]]:
    """Per-GPU outputs and owned rows of :func:`run_reduce_scatter_pipeline`.

    The ReduceScatter buffer of each group holds, for each destination GPU
    ``k``, the ``k``-th row block of every tile; it is packed and unpacked
    one sub-tile at a time.
    """
    layout = plan.layout
    n = plan.n_gpus
    op = elementwise if elementwise is not None else (lambda x: x)
    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    sub_rows = layout.tile_m // n
    owned_values = [np.zeros((layout.m, layout.n), dtype=np.float64) for _ in range(n)]
    owned_rows: list[set[int]] = [set() for _ in range(n)]
    for group in plan.groups:
        buffers = []
        for matrix in inputs:
            chunks = []
            for k in range(n):
                for tile in group:
                    rs, cs = layout.tile_slices(tile)
                    sub = matrix[rs.start + k * sub_rows : rs.start + (k + 1) * sub_rows, cs]
                    chunks.append(sub.ravel())
            buffers.append(np.concatenate(chunks))
        received = reduce_scatter_flat(buffers)
        for k in range(n):
            chunk = received[k]
            offset = 0
            for tile in group:
                rs, cs = layout.tile_slices(tile)
                size = sub_rows * layout.tile_n
                block = chunk[offset : offset + size].reshape(sub_rows, layout.tile_n)
                row_start = rs.start + k * sub_rows
                owned_values[k][row_start : row_start + sub_rows, cs] = block
                owned_rows[k].update(range(row_start, row_start + sub_rows))
                offset += size

    # Element-wise operator on complete rows, then AllGather + row exchange.
    shard_rows = [sorted(rows) for rows in owned_rows]
    shards = [
        op(owned_values[k][rows, :]) if rows else np.empty((0, layout.n))
        for k, rows in enumerate(shard_rows)
    ]
    gathered = np.concatenate(shards, axis=0)
    row_order = [r for rows in shard_rows for r in rows]
    outputs = []
    for _ in range(n):
        restored = np.empty_like(gathered)
        restored[row_order, :] = gathered
        outputs.append(restored)
    return outputs, shard_rows


@dataclass(frozen=True)
class _Subtoken:
    """One row segment of one tile, routed to a destination GPU."""

    source_row: int
    col_block: int
    data: np.ndarray


def all_to_all_reference(
    matrices: Sequence[np.ndarray],
    destinations: Sequence[np.ndarray],
    plans: Sequence[ReorderPlan],
) -> list[np.ndarray]:
    """Per-GPU outputs of :func:`run_all_to_all_pipeline`, row by row."""
    n = len(matrices)
    inputs = [np.asarray(m, dtype=np.float64) for m in matrices]
    dest_arrays = [np.asarray(d) for d in destinations]
    max_groups = max(plan.num_groups for plan in plans)
    # recv[dst][src] maps source row -> {col_block -> data}
    recv: list[list[dict[int, dict[int, np.ndarray]]]] = [
        [dict() for _ in range(n)] for _ in range(n)
    ]

    for group_round in range(max_groups):
        # Each source packs one memory pool per destination for this round.
        send: list[list[list[_Subtoken]]] = [[[] for _ in range(n)] for _ in range(n)]
        for src in range(n):
            plan = plans[src]
            if group_round >= plan.num_groups:
                continue
            group = plan.groups[group_round]
            matrix = inputs[src]
            dests = dest_arrays[src]
            layout = plan.layout
            for tile in group:
                rs, cs = layout.tile_slices(tile)
                _, col_block = layout.tile_coords(tile)
                for row in range(rs.start, rs.stop):
                    dst = int(dests[row])
                    send[src][dst].append(
                        _Subtoken(source_row=row, col_block=col_block, data=matrix[row, cs].copy())
                    )
        # One All-to-All call moves every pool to its destination.  The payload
        # is the concatenated sub-token data; the metadata (source row, column
        # block) travels with it, as the mapping tables are shared knowledge.
        payload = [
            [
                np.concatenate([s.data for s in send[src][dst]])
                if send[src][dst]
                else np.empty(0)
                for dst in range(n)
            ]
            for src in range(n)
        ]
        received = all_to_all(payload)
        for dst in range(n):
            for src in range(n):
                buffer = received[dst][src]
                offset = 0
                for token in send[src][dst]:
                    size = token.data.size
                    chunk = buffer[offset : offset + size]
                    recv[dst][src].setdefault(token.source_row, {})[token.col_block] = chunk
                    offset += size

    # Post-communication reorder: assemble complete tokens ordered by
    # (source GPU, source row index).
    outputs = []
    for dst in range(n):
        rows = []
        for src in range(n):
            layout = plans[src].layout
            for source_row in sorted(recv[dst][src]):
                blocks = recv[dst][src][source_row]
                expected_blocks = layout.grid_n
                if sorted(blocks) != list(range(expected_blocks)):
                    raise ValueError(
                        f"token (src={src}, row={source_row}) arrived incomplete at GPU {dst}"
                    )
                rows.append(np.concatenate([blocks[cb] for cb in range(expected_blocks)]))
        width = plans[0].layout.n
        outputs.append(np.stack(rows) if rows else np.empty((0, width)))
    return outputs
