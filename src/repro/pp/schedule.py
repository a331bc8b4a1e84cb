"""Pipeline-parallel microbatch schedules: GPipe, 1F1B and zero-bubble.

A schedule assigns every per-microbatch *cell* -- forward (``F``),
input-gradient backward (``B``) and weight-gradient (``W``) -- a position in
one stage's serial execution order, and each generator times its cells as it
places them.  All three share one greedy list-scheduling pass: a cell starts
when its stage is free *and* its cross-stage dependencies (plus the
inter-stage P2P transfer) have arrived.  The pass looks those dependencies up
in per-stage F-end and B-end lists indexed by microbatch and appends every
placed cell to its stage's columns (kind, microbatch, duration, start, end);
a :class:`Schedule` stores the columns, builds :class:`Cell` objects only
when asked for them, and traces each stage as one stream in the order the
stage runs its cells.

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

from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat
from math import fsum, isfinite

from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Trace

__all__ = [
    "Cell",
    "StageCostVector",
    "Schedule",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "zero_bubble_schedule",
    "generate_schedule",
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
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0):
                raise ValueError(f"{name} duration must be finite and non-negative, got {value}")

    @property
    def backward(self) -> float:
        """The bundled dgrad + wgrad backward cell of GPipe / 1F1B."""
        return self.dgrad + self.wgrad


@dataclass(frozen=True)
class Cell:
    """One scheduled unit: a microbatch's F/B/W pass through one stage."""

    stage: int
    microbatch: int
    kind: str  # "F" | "B" | "W"
    duration: float
    start: float
    end: float

    @property
    def name(self) -> str:
        return f"{self.kind}{self.microbatch}@s{self.stage}"


@dataclass(frozen=True)
class Schedule:
    """Timed cells as per-stage columns, plus what timing depended on.

    Each column tuple is indexed by stage and lists that stage's cells in
    serial execution order: ``kinds`` holds one ``"F"``/``"B"``/``"W"``
    character per cell, and ``microbatches``, ``durations``, ``starts`` and
    ``ends`` the matching values.  Every aggregate reads the columns;
    :attr:`stage_orders` and :meth:`cells` build :class:`Cell` objects on
    each call.
    """

    name: str
    num_stages: int
    num_microbatches: int
    kinds: tuple[str, ...]
    microbatches: tuple[tuple[int, ...], ...]
    durations: tuple[tuple[float, ...], ...]
    starts: tuple[tuple[float, ...], ...]
    ends: tuple[tuple[float, ...], ...]
    fwd_delay: float  # P2P transfer of forward activations between stages
    bwd_delay: float  # P2P transfer of backward gradients between stages
    #: Non-useful (recomputation) work per stage per microbatch, carried
    #: inside backward cells (GPipe only).
    recompute: tuple[float, ...] = ()
    #: True when backward is split into B + W cells (zero-bubble).
    split_backward: bool = False

    @property
    def stage_orders(self) -> tuple[tuple[Cell, ...], ...]:
        """Serial execution order of each stage (index = stage), as cells."""
        columns = zip(self.microbatches, self.kinds, self.durations, self.starts, self.ends)
        return tuple(tuple(map(Cell, repeat(stage), *column)) for stage, column in enumerate(columns))

    def cells(self) -> list[Cell]:
        return [cell for order in self.stage_orders for cell in order]

    @property
    def num_cells(self) -> int:
        return sum(map(len, self.kinds))

    @property
    def makespan(self) -> float:
        """Step time: the latest last-cell end of any stage.

        Ends never decrease within a stage, so this is the latest end of all.
        """
        return max(ends[-1] for ends in self.ends)

    def stage_work(self) -> tuple[float, ...]:
        """Per-stage busy time: cell durations left-folded in stage order."""
        return tuple(map(sum, self.durations))

    def useful_work(self) -> float:
        """Total F+B+W compute across all stages (recomputation excluded)."""
        overhead = self.recompute or (0.0,) * self.num_stages
        return fsum(
            duration - (cost if kind == "B" else 0.0)
            for kinds, durations, cost in zip(self.kinds, self.durations, overhead)
            for kind, duration in zip(kinds, durations)
        )

    def trace(self) -> Trace:
        """The cells as a trace: one stream per stage, in execution order.

        Streams ``stage0`` to ``stage{S-1}`` are recorded one after another,
        each listing its stage's cells in the order the stage runs them (the
        columns as stored).  Trace readers work stream by stream, so the
        spans carry no order across stages.
        """
        trace = Trace()
        category = _CELL_CATEGORIES.__getitem__
        columns = zip(self.kinds, self.microbatches, self.starts, self.ends)
        for stage, (kinds, microbatches, starts, ends) in enumerate(columns):
            suffix = f"@s{stage}"
            names = [f"{kind}{mb}{suffix}" for kind, mb in zip(kinds, microbatches)]
            trace.extend(f"stage{stage}", names, starts, ends, list(map(category, kinds)))
        return trace


def _check_costs(
    stages: tuple[StageCostVector, ...], microbatches: int, fwd_delay: float, bwd_delay: float
) -> None:
    if not stages:
        raise ValueError("a schedule needs at least one stage")
    if microbatches < 1:
        raise ValueError("microbatches must be >= 1")
    # A NaN or negative delay would let a cell start before its input arrives.
    for name, delay in (("fwd_delay", fwd_delay), ("bwd_delay", bwd_delay)):
        if not (isfinite(delay) and delay >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {delay}")


#: W-placement policies the zero-bubble generator searches over (in
#: tie-break order).  ``defer`` fills gaps only when the W provably cannot
#: delay the next F/B cell and drains the rest after the cooldown; ``eager``
#: fills every idle gap even when the W overshoots into the next cell's
#: start (keeping the stage busy at the cost of a small delay); ``inline``
#: runs each W directly after its B, which reproduces 1F1B's placement but
#: with the split backward -- downstream stages no longer wait for the wgrad
#: part, so its step time never exceeds 1F1B's.
_ZB_POLICIES = ("defer", "eager", "inline")


def _list_schedule(
    name: str,
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float,
    bwd_delay: float,
    fb_orders: list[list[tuple[str, int]]],
    backward: tuple[float, ...],
    policy: str | None,
) -> Schedule:
    """Place and time every cell by greedy list scheduling.

    Each stage runs its ``fb_orders`` F/B cells in order; a cell starts once
    its stage is free and its dependencies (plus the P2P transfer) have
    arrived.  The pass keeps one cursor per stage and advances each stage
    while its head cell is ready, reading dependency ends from per-stage
    F-end and B-end lists indexed by microbatch (``None`` until placed).
    ``backward[s]`` is stage ``s``'s B duration.  ``policy`` is ``None`` for
    a bundled backward (no W cells); otherwise it names the
    :data:`_ZB_POLICIES` member that places each B's W cell.
    """
    num_stages = len(stages)
    last = num_stages - 1
    f_ends: list[list[float | None]] = [[None] * microbatches for _ in stages]
    b_ends: list[list[float | None]] = [[None] * microbatches for _ in stages]
    # One (kind, microbatch, duration, start, end) row per placed cell.
    rows: list[list[tuple[str, int, float, float, float]]] = [[] for _ in stages]
    free = [0.0] * num_stages
    heads = [0] * num_stages
    # What a stage's cursor reads: its order, the upstream F ends its F cells
    # wait on, its own F and B ends, the downstream B ends its B cells wait
    # on, its rows, its pool of deferred W cells and its durations.
    lanes = [
        (fb_orders[s], f_ends[s - 1] if s else None, f_ends[s], b_ends[s],
         b_ends[s + 1] if s < last else None, rows[s], deque(), cost.forward, backward[s], cost.wgrad)
        for s, cost in enumerate(stages)
    ]
    defer, inline, pool = policy == "defer", policy == "inline", policy in ("defer", "eager")

    remaining = sum(len(order) for order in fb_orders)
    while remaining:
        before = remaining
        for stage, lane in enumerate(lanes):
            order, upstream, own_f, own_b, downstream, placed, pending_w, forward, bwd, wgrad = lane
            head, free_at = heads[stage], free[stage]
            while head < len(order):
                kind, mb = order[head]
                if kind == "F":
                    if upstream is None:
                        ready = 0.0
                    else:
                        ready = upstream[mb]
                        if ready is None:
                            break
                        ready += fwd_delay
                    duration = forward
                else:
                    ready = own_f[mb]
                    if ready is None:
                        break
                    ready += 0.0  # the same-stage F -> B edge carries no transfer
                    if downstream is not None:
                        arrival = downstream[mb]
                        if arrival is None:
                            break
                        arrival += bwd_delay
                        if arrival > ready:
                            ready = arrival
                    duration = bwd
                # Fill the gap in front of this cell with deferred W work:
                # `defer` only when the W provably cannot delay the cell,
                # `eager` whenever the stage would otherwise idle (inline and
                # bundled backwards keep no pool, so the loop never runs).
                while pending_w and (free_at + wgrad <= ready if defer else free_at < ready):
                    placed.append(("W", pending_w.popleft(), wgrad, free_at, free_at + wgrad))
                    free_at += wgrad
                start = ready if ready > free_at else free_at
                free_at = start + duration
                placed.append((kind, mb, duration, start, free_at))
                if kind == "F":
                    own_f[mb] = free_at
                else:
                    own_b[mb] = free_at
                    if inline:
                        placed.append(("W", mb, wgrad, free_at, free_at + wgrad))
                        free_at += wgrad
                    elif pool:
                        pending_w.append(mb)
                head += 1
            remaining -= head - heads[stage]
            heads[stage], free[stage] = head, free_at
        if remaining == before:  # every generator's order is feasible; this guards new ones
            stuck = [
                f"{order[head][0]}{order[head][1]}@s{stage}"
                for stage, (order, head) in enumerate(zip(fb_orders, heads))
                if head < len(order)
            ]
            raise RuntimeError(
                f"{name} list scheduling stalled: cells {stuck} wait on cells that never finish"
            )
    for stage, (*_, placed, pending_w, _, _, wgrad) in enumerate(lanes):
        free_at = free[stage]
        for mb in pending_w:
            placed.append(("W", mb, wgrad, free_at, free_at + wgrad))
            free_at += wgrad
    kinds, mbs, durations, starts, ends = zip(*(zip(*placed) for placed in rows))
    return Schedule(
        name, num_stages, microbatches, tuple(map("".join, kinds)), mbs, durations, starts, ends,
        fwd_delay, bwd_delay, split_backward=policy is not None,
    )


def gpipe_schedule(
    stages: tuple[StageCostVector, ...],
    microbatches: int,
    fwd_delay: float = 0.0,
    bwd_delay: float = 0.0,
) -> Schedule:
    """GPipe: all forwards, then all backwards, with activation recompute."""
    _check_costs(stages, microbatches, fwd_delay, bwd_delay)
    order = [("F", m) for m in range(microbatches)] + [("B", m) for m in range(microbatches)]
    # Rematerialisation: the backward cell re-runs the stage's forward before
    # computing dgrad + wgrad (GPipe stores only boundary activations).
    schedule = _list_schedule(
        "gpipe",
        stages,
        microbatches,
        fwd_delay,
        bwd_delay,
        [order] * len(stages),
        tuple(cost.forward + cost.backward for cost in stages),
        policy=None,
    )
    return replace(schedule, recompute=tuple(cost.forward for cost in stages))


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
    _check_costs(stages, microbatches, fwd_delay, bwd_delay)
    return _list_schedule(
        "1f1b",
        stages,
        microbatches,
        fwd_delay,
        bwd_delay,
        _one_f_one_b_orders(len(stages), microbatches),
        tuple(cost.backward for cost in stages),
        policy=None,
    )


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
    policies in :data:`_ZB_POLICIES` and keeps the fastest schedule (the
    first on ties).  The ``inline`` member of that family strictly dominates
    1F1B (same placement, but upstream stages stop waiting for wgrad work),
    so the selected step time -- and therefore the bubble ratio -- is never
    worse than 1F1B's.
    """
    _check_costs(stages, microbatches, fwd_delay, bwd_delay)
    fb_orders = _one_f_one_b_orders(len(stages), microbatches)
    dgrad = tuple(cost.dgrad for cost in stages)
    return min(
        (
            _list_schedule(
                "zero-bubble", stages, microbatches, fwd_delay, bwd_delay, fb_orders, dgrad, policy
            )
            for policy in _ZB_POLICIES
        ),
        key=lambda schedule: schedule.makespan,
    )


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
    """Generate a named, timed schedule over per-stage cell costs."""
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
    bundled ``B`` cell otherwise.  A stage runs its cells in exactly this
    order, so the walk's running peak is the schedule's activation
    high-water mark in microbatch units; the planner turns it into bytes
    (GPipe's recomputation stores only the stage-boundary activation, the
    other schedules keep every layer's).
    """
    release = "W" if schedule.split_backward else "B"
    peaks = []
    for kinds in schedule.kinds:
        live = peak = 0
        for kind in kinds:
            if kind == "F":
                live += 1
                if live > peak:
                    peak = live
            elif kind == release:
                live -= 1
        peaks.append(peak)
    return tuple(peaks)
