"""Event-by-event replay of a pipeline schedule: the rule its generators time.

The oracle rebuilds the schedule's dependency DAG from cell names -- every
cell waits for the previous cell on its stage and for its cross-stage
dependencies plus their P2P delay -- and runs it on the engine.  Each stage
head starts as soon as its stage is free and its dependencies (plus their
delays) have finished; each finish event records its span, frees the stage
and pumps every stage head again.  Trace spans are recorded in finish-event
order; on each stream that is the stage's execution order, which
:meth:`Schedule.trace` must reproduce stream by stream.
:func:`critical_path` recomputes the step time a third way, as a longest
path over the same DAG with no engine at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from oracles.trace import ReferenceTrace
from repro.pp.schedule import _CELL_CATEGORIES, Cell, Schedule
from repro.sim.engine import EventEngine


@dataclass
class ReferenceReplay:
    """Realized timeline of one event-by-event replay."""

    makespan: float
    #: Cell name -> (start, end) in replay time.
    spans: dict[str, tuple[float, float]]
    #: Per-stage sum of cell durations, in stage order.
    stage_work: tuple[float, ...]
    trace: ReferenceTrace


def dependencies(schedule: Schedule, cell: Cell) -> list[tuple[str, float]]:
    """Cross-stage / cross-kind dependency edges of one cell, by cell name."""
    deps: list[tuple[str, float]] = []
    last = schedule.num_stages - 1
    if cell.kind == "F":
        if cell.stage > 0:
            deps.append((f"F{cell.microbatch}@s{cell.stage - 1}", schedule.fwd_delay))
    elif cell.kind == "B":
        deps.append((f"F{cell.microbatch}@s{cell.stage}", 0.0))
        if cell.stage < last:
            deps.append((f"B{cell.microbatch}@s{cell.stage + 1}", schedule.bwd_delay))
    elif cell.kind == "W":
        deps.append((f"B{cell.microbatch}@s{cell.stage}", 0.0))
    else:
        raise ValueError(f"unknown cell kind {cell.kind!r}")
    return deps


def replay_reference(schedule: Schedule) -> ReferenceReplay:
    """Greedy list scheduling of the cells, executed event by event."""
    queues = schedule.stage_orders
    engine = EventEngine()
    trace = ReferenceTrace()
    heads = [0] * len(queues)  # next queue index per stage
    running = [False] * len(queues)
    free_at = [0.0] * len(queues)
    ends: dict[str, float] = {}
    spans: dict[str, tuple[float, float]] = {}

    def finish(stage: int, cell: Cell, start: float) -> None:
        ends[cell.name] = engine.now
        spans[cell.name] = (start, engine.now)
        trace.record(f"stage{stage}", cell.name, start, engine.now, _CELL_CATEGORIES[cell.kind])
        running[stage] = False
        free_at[stage] = engine.now
        pump()

    def pump() -> None:
        # Start every stage head whose dependencies have completed.  A
        # completion can unblock heads on any stage, so scan them all.
        for stage, queue in enumerate(queues):
            if running[stage] or heads[stage] >= len(queue):
                continue
            cell = queue[heads[stage]]
            deps = dependencies(schedule, cell)
            if any(dep not in ends for dep, _ in deps):
                continue
            ready = free_at[stage]
            for dep, delay in deps:
                ready = max(ready, ends[dep] + delay)
            start = max(ready, engine.now)
            heads[stage] += 1
            running[stage] = True
            engine.schedule(start + cell.duration, finish, stage, cell, start)

    engine.schedule(0.0, pump)
    engine.run()
    stuck = [queue[head].name for queue, head in zip(queues, heads) if head < len(queue)]
    if stuck:
        raise RuntimeError(f"replay deadlocked: cells {stuck} wait on cells that never finish")

    return ReferenceReplay(
        makespan=max(end for _, end in spans.values()),
        spans=spans,
        stage_work=tuple(sum(cell.duration for cell in queue) for queue in queues),
        trace=trace,
    )


def critical_path(schedule: Schedule) -> float:
    """Step time recomputed independently from the cell DAG.

    Kahn-style longest path over the union of the cross-stage dependency
    edges and the per-stage serial-order edges -- no event engine, no stage
    bookkeeping.  Must equal ``schedule.makespan`` exactly (the property
    suite asserts bit-equality).
    """
    cells = {cell.name: cell for cell in schedule.cells()}
    edges: dict[str, list[tuple[str, float]]] = {name: [] for name in cells}
    indegree = dict.fromkeys(cells, 0)
    for cell in cells.values():
        for dep, delay in dependencies(schedule, cell):
            edges[dep].append((cell.name, delay))
            indegree[cell.name] += 1
    for order in schedule.stage_orders:
        for earlier, later in zip(order, order[1:]):
            edges[earlier.name].append((later.name, 0.0))
            indegree[later.name] += 1

    start = dict.fromkeys(cells, 0.0)
    queue = [name for name, degree in indegree.items() if degree == 0]
    finished: dict[str, float] = {}
    while queue:
        name = queue.pop()
        end = start[name] + cells[name].duration
        finished[name] = end
        for successor, delay in edges[name]:
            start[successor] = max(start[successor], end + delay)
            indegree[successor] -= 1
            if indegree[successor] == 0:
                queue.append(successor)
    if len(finished) != len(cells):
        raise RuntimeError("schedule DAG is cyclic")
    return max(finished.values())
