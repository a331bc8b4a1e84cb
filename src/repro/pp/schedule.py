"""Pipeline-parallel microbatch schedules: GPipe, 1F1B and zero-bubble.

A schedule assigns every per-microbatch *cell* -- forward (``F``),
input-gradient backward (``B``) and weight-gradient (``W``) -- a position in
one stage's serial execution order.  Timing then follows from greedy list
scheduling: a cell starts when its stage is free *and* its cross-stage
dependencies (plus the inter-stage P2P transfer) have arrived, which is what
:func:`Schedule.replay` computes on the event engine and
:func:`critical_path` recomputes independently from the cell DAG.

The three generators:

* :func:`gpipe_schedule` -- all forwards, then all backwards.  GPipe as
  published relies on activation *recomputation* (only stage-boundary
  activations are stored), so each backward cell carries an extra forward
  pass; that recomputation is overhead, not useful work, which is why GPipe's
  bubble ratio exceeds 1F1B's even at equal memory-free step structure.
* :func:`one_f_one_b_schedule` -- PipeDream-flush / Megatron 1F1B: stage
  ``s`` of ``S`` runs ``min(M, S - s - 1)`` warmup forwards, alternates
  forward/backward in the steady state, and drains backwards in the
  cooldown.  Backward cells bundle dgrad + wgrad.
* :func:`zero_bubble_schedule` -- ZB-H1-style: the backward is split into a
  ``B`` cell (input gradients -- the only part the upstream stage waits for)
  and a deferred ``W`` cell (weight gradients).  ``B``/``F`` keep the 1F1B
  order; the ``W`` cells are placed by a clairvoyant list scheduler that
  searches a small family of placement policies (fill bubbles without
  delaying F/B, fill every idle gap eagerly, run W inline after its B) and
  keeps the fastest.  The inline member reproduces 1F1B's placement with a
  split backward -- upstream stages stop waiting for wgrad work -- so the
  selected step time, and therefore the bubble ratio, is never worse than
  1F1B's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from repro.gpu.kernels import KernelCategory
from repro.sim.replay import ReplayResult, ReplayTask, replay_tasks

__all__ = [
    "Cell",
    "StageCostVector",
    "Schedule",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "zero_bubble_schedule",
    "generate_schedule",
    "critical_path",
    "stage_peak_inflight",
    "KNOWN_SCHEDULES",
]

#: Trace/category colour per cell kind.
_CELL_CATEGORIES = {
    "F": KernelCategory.GEMM,
    "B": KernelCategory.OTHER,
    "W": KernelCategory.ELEMENTWISE,
}


@dataclass(frozen=True)
class StageCostVector:
    """Realized per-microbatch cell durations of one stage (one method)."""

    forward: float
    dgrad: float
    wgrad: float

    def __post_init__(self) -> None:
        for name in ("forward", "dgrad", "wgrad"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} duration must be non-negative")

    @property
    def backward(self) -> float:
        """The bundled dgrad + wgrad backward cell of GPipe / 1F1B."""
        return self.dgrad + self.wgrad

    @property
    def useful(self) -> float:
        """True per-microbatch compute (excludes any recomputation)."""
        return self.forward + self.dgrad + self.wgrad


@dataclass(frozen=True)
class Cell:
    """One scheduled unit: a microbatch's F/B/W pass through one stage."""

    stage: int
    microbatch: int
    kind: str  # "F" | "B" | "W"
    duration: float

    @property
    def name(self) -> str:
        return f"{self.kind}{self.microbatch}@s{self.stage}"


@dataclass(frozen=True)
class Schedule:
    """Per-stage execution orders plus everything timing depends on."""

    name: str
    num_stages: int
    num_microbatches: int
    #: Serial execution order of each stage (index = stage).
    stage_orders: tuple[tuple[Cell, ...], ...]
    fwd_delay: float  # P2P transfer of forward activations between stages
    bwd_delay: float  # P2P transfer of backward gradients between stages
    #: Non-useful (recomputation) work per stage per microbatch, carried
    #: inside backward cells (GPipe only).
    recompute: tuple[float, ...] = ()
    #: True when backward is split into B + W cells (zero-bubble).
    split_backward: bool = False

    def cells(self) -> list[Cell]:
        return [cell for order in self.stage_orders for cell in order]

    def dependencies(self, cell: Cell) -> list[tuple[str, float]]:
        """Cross-stage / cross-kind dependency edges of one cell."""
        deps: list[tuple[str, float]] = []
        last = self.num_stages - 1
        if cell.kind == "F":
            if cell.stage > 0:
                deps.append((f"F{cell.microbatch}@s{cell.stage - 1}", self.fwd_delay))
        elif cell.kind == "B":
            deps.append((f"F{cell.microbatch}@s{cell.stage}", 0.0))
            if cell.stage < last:
                deps.append((f"B{cell.microbatch}@s{cell.stage + 1}", self.bwd_delay))
        elif cell.kind == "W":
            deps.append((f"B{cell.microbatch}@s{cell.stage}", 0.0))
        else:  # pragma: no cover - Cell.kind is internal
            raise ValueError(f"unknown cell kind {cell.kind!r}")
        return deps

    def tasks(self) -> list[ReplayTask]:
        """The schedule as replayable tasks (one serial resource per stage)."""
        return [
            ReplayTask(
                name=cell.name,
                resource=f"stage{cell.stage}",
                duration=cell.duration,
                deps=tuple(self.dependencies(cell)),
                category=_CELL_CATEGORIES[cell.kind],
            )
            for cell in self.cells()
        ]

    def replay(self, record_trace: bool = False) -> ReplayResult:
        """Greedy list-scheduled execution of the cells on their stages."""
        return replay_tasks(self.tasks(), record_trace=record_trace)

    def useful_work(self) -> float:
        """Total F+B+W compute across all stages (recomputation excluded)."""
        overhead = list(self.recompute) or [0.0] * self.num_stages
        return fsum(
            cell.duration - (overhead[cell.stage] if cell.kind == "B" else 0.0)
            for cell in self.cells()
        )


def _check_costs(stages: tuple[StageCostVector, ...], microbatches: int) -> None:
    if not stages:
        raise ValueError("a schedule needs at least one stage")
    if microbatches < 1:
        raise ValueError("microbatches must be >= 1")


def gpipe_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """GPipe: all forwards, then all backwards, with activation recompute."""
    _check_costs(stages, microbatches)
    orders = []
    for index, cost in enumerate(stages):
        order = [Cell(index, m, "F", cost.forward) for m in range(microbatches)]
        # Rematerialisation: the backward cell re-runs the stage's forward
        # before computing dgrad + wgrad (GPipe stores only boundary
        # activations).
        order += [
            Cell(index, m, "B", cost.forward + cost.backward) for m in range(microbatches)
        ]
        orders.append(tuple(order))
    return Schedule(
        name="gpipe",
        num_stages=len(stages),
        num_microbatches=microbatches,
        stage_orders=tuple(orders),
        fwd_delay=fwd_delay,
        bwd_delay=bwd_delay,
        recompute=tuple(cost.forward for cost in stages),
    )


def _one_f_one_b_orders(num_stages: int, microbatches: int) -> list[list[tuple[str, int]]]:
    """The (kind, microbatch) order of every stage under 1F1B."""
    orders = []
    for stage in range(num_stages):
        warmup = min(microbatches, num_stages - stage - 1)
        order: list[tuple[str, int]] = [("F", m) for m in range(warmup)]
        for i in range(microbatches - warmup):
            order.append(("F", warmup + i))
            order.append(("B", i))
        order += [("B", m) for m in range(microbatches - warmup, microbatches)]
        orders.append(order)
    return orders


def one_f_one_b_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """1F1B (PipeDream-flush): warmup forwards, steady 1F1B, cooldown."""
    _check_costs(stages, microbatches)
    orders = []
    for stage, order in enumerate(_one_f_one_b_orders(len(stages), microbatches)):
        cost = stages[stage]
        orders.append(
            tuple(
                Cell(stage, m, kind, cost.forward if kind == "F" else cost.backward)
                for kind, m in order
            )
        )
    return Schedule(
        name="1f1b",
        num_stages=len(stages),
        num_microbatches=microbatches,
        stage_orders=tuple(orders),
        fwd_delay=fwd_delay,
        bwd_delay=bwd_delay,
    )


#: W-placement policies the zero-bubble generator searches over (in
#: tie-break order).  ``defer`` fills gaps only when the W provably cannot
#: delay the next F/B cell and drains the rest after the cooldown; ``eager``
#: fills every idle gap even when the W overshoots into the next cell's
#: start (keeping the stage busy at the cost of a small delay); ``inline``
#: runs each W directly after its B, which reproduces 1F1B's placement but
#: with the split backward -- downstream stages no longer wait for the wgrad
#: part, so its step time never exceeds 1F1B's.
_ZB_POLICIES = ("defer", "eager", "inline")


def _zero_bubble_candidate(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float,
    bwd_delay: float,
    policy: str,
) -> tuple[float, Schedule]:
    """List-schedule the split backward under one W-placement policy."""
    num_stages = len(stages)
    last = num_stages - 1
    fb_orders = _one_f_one_b_orders(num_stages, microbatches)

    ends: dict[tuple[str, int, int], float] = {}  # (kind, stage, mb) -> end
    free = [0.0] * num_stages
    heads = [0] * num_stages
    pending_w: list[list[int]] = [[] for _ in range(num_stages)]
    orders: list[list[Cell]] = [[] for _ in range(num_stages)]

    def place(stage: int, kind: str, mb: int, duration: float, start: float) -> None:
        orders[stage].append(Cell(stage, mb, kind, duration))
        ends[(kind, stage, mb)] = start + duration
        free[stage] = start + duration

    remaining = sum(len(order) for order in fb_orders)
    while remaining:
        progressed = False
        for stage in range(num_stages):
            cost = stages[stage]
            while heads[stage] < len(fb_orders[stage]):
                kind, mb = fb_orders[stage][heads[stage]]
                if kind == "F":
                    dep_keys = [("F", stage - 1, mb)] if stage > 0 else []
                    delays = [fwd_delay]
                    duration = cost.forward
                else:
                    dep_keys = [("F", stage, mb)]
                    delays = [0.0]
                    if stage < last:
                        dep_keys.append(("B", stage + 1, mb))
                        delays.append(bwd_delay)
                    duration = cost.dgrad
                if any(key not in ends for key in dep_keys):
                    break
                ready = max(
                    (ends[key] + delay for key, delay in zip(dep_keys, delays)),
                    default=0.0,
                )
                # Fill the gap in front of this cell with deferred W work:
                # `defer` only when the W provably cannot delay the cell,
                # `eager` whenever the stage would otherwise idle (inline
                # keeps no pool, so its loop never runs).
                while pending_w[stage] and (
                    free[stage] + cost.wgrad <= ready
                    if policy == "defer"
                    else free[stage] < ready
                ):
                    place(stage, "W", pending_w[stage].pop(0), cost.wgrad, free[stage])
                place(stage, kind, mb, duration, max(free[stage], ready))
                if kind == "B":
                    if policy == "inline":
                        place(stage, "W", mb, cost.wgrad, free[stage])
                    else:
                        pending_w[stage].append(mb)
                heads[stage] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # pragma: no cover - the 1F1B order is feasible
            raise RuntimeError("zero-bubble generation stalled (infeasible order)")
    for stage in range(num_stages):
        for mb in pending_w[stage]:
            place(stage, "W", mb, stages[stage].wgrad, free[stage])
    schedule = Schedule(
        name="zero-bubble",
        num_stages=num_stages,
        num_microbatches=microbatches,
        stage_orders=tuple(tuple(order) for order in orders),
        fwd_delay=fwd_delay,
        bwd_delay=bwd_delay,
        split_backward=True,
    )
    return max(ends.values(), default=0.0), schedule


def zero_bubble_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """Zero-bubble (ZB-H1-style): split backward, W cells fill the bubbles.

    F and B keep the 1F1B order (B now carries only the input gradients, so
    the cross-stage backward chain is shorter); the W cells are placed by a
    clairvoyant list scheduler that searches the small family of placement
    policies in :data:`_ZB_POLICIES` and keeps the fastest schedule.  The
    ``inline`` member of that family strictly dominates 1F1B (same placement,
    but upstream stages stop waiting for wgrad work), so the selected step
    time -- and therefore the bubble ratio -- is never worse than 1F1B's.
    """
    _check_costs(stages, microbatches)
    best: tuple[float, Schedule] | None = None
    for policy in _ZB_POLICIES:
        step, candidate = _zero_bubble_candidate(
            stages, microbatches, fwd_delay, bwd_delay, policy
        )
        if best is None or step < best[0]:
            best = (step, candidate)
    return best[1]


#: Schedule slug -> generator, in canonical (bubble-decreasing) order.
KNOWN_SCHEDULES = {
    "gpipe": gpipe_schedule,
    "1f1b": one_f_one_b_schedule,
    "zero-bubble": zero_bubble_schedule,
}


def generate_schedule(
    name: str,
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """Generate a named schedule over per-stage cell costs."""
    try:
        generator = KNOWN_SCHEDULES[name]
    except KeyError:
        raise KeyError(
            f"unknown schedule {name!r}; known: {sorted(KNOWN_SCHEDULES)}"
        ) from None
    return generator(stages, microbatches, fwd_delay=fwd_delay, bwd_delay=bwd_delay)


def stage_peak_inflight(schedule: Schedule) -> tuple[int, ...]:
    """Peak number of microbatches whose activations a stage holds at once.

    Walks each stage's serial order: a forward cell admits one microbatch's
    activations (``+1``); they are freed once the weight gradient no longer
    needs them -- at the ``W`` cell when the backward is split (zero-bubble
    defers wgrad, so activations live *longer* than under 1F1B), at the
    bundled ``B`` cell otherwise.  The stage order is a valid serialisation
    of the replayed execution, so the walk's running peak is exactly the
    schedule's activation high-water mark in microbatch units; the planner
    turns it into bytes (GPipe's recomputation stores only the stage-boundary
    activation, the other schedules keep every layer's).
    """
    peaks = []
    for order in schedule.stage_orders:
        live = peak = 0
        release = "W" if schedule.split_backward else "B"
        for cell in order:
            if cell.kind == "F":
                live += 1
                peak = max(peak, live)
            elif cell.kind == release:
                live -= 1
        peaks.append(peak)
    return tuple(peaks)


def critical_path(schedule: Schedule) -> float:
    """Step time recomputed independently from the cell DAG.

    Kahn-style longest path over the union of the cross-stage dependency
    edges and the per-stage serial-order edges -- no event engine, no
    resource bookkeeping.  Must equal ``schedule.replay().makespan`` exactly
    (the property suite asserts bit-equality).
    """
    cells = {cell.name: cell for cell in schedule.cells()}
    edges: dict[str, list[tuple[str, float]]] = {name: [] for name in cells}
    indegree = dict.fromkeys(cells, 0)
    for cell in cells.values():
        for dep, delay in schedule.dependencies(cell):
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
    return max(finished.values(), default=0.0)
