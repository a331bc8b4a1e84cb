"""Dependency-aware replay of tasks on serial resources (multi-stage replay).

Several subsystems need one small scheduling semantic (the pipeline scheduler
replays stage timelines with it):

* every :class:`ReplayTask` runs on one named *resource* (a pipeline stage, a
  CUDA stream, ...) that executes its tasks strictly in list order, one at a
  time;
* a task additionally waits for its *dependencies* -- other tasks, each with
  an optional extra delay after the dependency finishes (e.g. a P2P transfer
  between pipeline stages);
* a task therefore starts at ``max(resource free, max(dep end + delay))``,
  which is exactly the greedy list-scheduling rule.

Greedy list scheduling on FIFO serial resources is longest-path evaluation
over the dependency DAG extended with per-resource chain edges, so one
topological (Kahn) sweep resolves every start and end time.  Straggling
resources stretch their tasks through a :class:`SpeedProfile`.

The result carries per-task spans, per-resource busy times and, on request,
a :class:`~repro.sim.trace.Trace` (one stream per resource) ready for Chrome
trace export.  The trace lists spans in completion order as an event-driven
run of the same rule would record them: by end time, then by dispatch order
(see :func:`_completion_order`).  The differential suite checks spans,
aggregates and trace order against an event-by-event oracle.  An order that
can never make progress (a dependency cycle through the resource orders)
raises instead of hanging.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Protocol

from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Trace

__all__ = ["ReplayTask", "ReplayResult", "SpeedProfile", "replay_tasks"]


class SpeedProfile(Protocol):
    """Anything that can stretch a task's duration over wall-clock time.

    ``finish_time(start, work)`` returns when ``work`` nominal seconds of
    work complete if started at ``start``.  The fault layer's
    :class:`repro.faults.timeline.SpeedTimeline` satisfies this; the protocol
    keeps ``sim`` free of a dependency on ``faults``.
    """

    def finish_time(self, start: float, work: float) -> float: ...


@dataclass(frozen=True)
class ReplayTask:
    """One unit of work on a serial resource.

    ``deps`` is a tuple of ``(task name, extra delay)`` pairs: the task may
    start only once every named dependency has finished plus its delay.
    """

    name: str
    resource: str
    duration: float
    deps: tuple[tuple[str, float], ...] = ()
    category: KernelCategory = KernelCategory.OTHER

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name!r} has a negative duration")
        for dep, delay in self.deps:
            if delay < 0:
                raise ValueError(f"task {self.name!r} dependency {dep!r} has a negative delay")


@dataclass
class ReplayResult:
    """Realized timeline of one replay.

    ``busy`` is *occupancy*: the wall-clock length of every span the resource
    executed, straggler stretch included.  ``work`` is the *nominal* duration
    sum of the same tasks -- what the resource would have been busy for at
    full speed.  The two coincide (up to float association) on unprofiled
    replays and diverge exactly by the fault stretch under a
    :class:`SpeedProfile`.
    """

    makespan: float
    #: Task name -> (start, end) in replay time.
    spans: dict[str, tuple[float, float]]
    #: Resource names in first-appearance order.
    resources: list[str]
    trace: Trace | None = None
    #: Stretched occupancy per resource (wall-clock span lengths).
    busy: dict[str, float] = field(default_factory=dict)
    #: Nominal work per resource (task durations, stretch excluded).
    work: dict[str, float] = field(default_factory=dict)

    def start(self, name: str) -> float:
        return self.spans[name][0]

    def end(self, name: str) -> float:
        return self.spans[name][1]

    def idle(self, resource: str) -> float:
        """Wall-clock time the resource spends *unoccupied* within the makespan.

        Straggler-stretched spans count as occupied: a slowed stage is not
        idle, it is slow.  Use :meth:`stall` for the useful-work view.
        """
        return self.makespan - self.busy[resource]

    def stall(self, resource: str) -> float:
        """Makespan share not covered by *nominal* work on the resource.

        Unlike :meth:`idle`, straggler stretch counts as stalled time, so
        this is the number that exposes fault-induced bubbles: it answers
        "how much of the step was not useful work on this resource".
        """
        return self.makespan - self.work[resource]


def replay_tasks(
    tasks: list[ReplayTask],
    record_trace: bool = False,
    resource_profiles: Mapping[str, SpeedProfile] | None = None,
) -> ReplayResult:
    """Replay ``tasks`` (FIFO per resource, dependency-gated).

    ``resource_profiles`` optionally maps a resource name to a
    :class:`SpeedProfile`; that resource's tasks then take
    ``profile.finish_time(start, duration) - start`` wall-clock seconds
    instead of ``duration`` (straggling or crashed stages stretch, nominal
    profiles change nothing).
    """
    n = len(tasks)
    names = [task.name for task in tasks]
    index = dict(zip(names, range(n)))
    if len(index) != n:
        _validate(tasks)  # raises the duplicate-name error
    durations = [task.duration for task in tasks]
    profiles = resource_profiles or {}
    profile_of = [profiles.get(task.resource) for task in tasks] if profiles else [None] * n

    # Lower the task list to successor edges: dependency edges carry their
    # delay, and each queue's serial order adds one zero-delay chain edge
    # (``end + 0.0 == end`` exactly, so chain edges are float-transparent).
    out: list[list[tuple[int, float]] | None] = [None] * n
    chain_next = [-1] * n
    indeg = [0] * n
    queue_indices: dict[str, list[int]] = {}
    try:
        for i, task in enumerate(tasks):
            deps = task.deps
            if deps:
                indeg[i] = len(deps)
                for dep, delay in deps:
                    j = index[dep]
                    edges = out[j]
                    if edges is None:
                        out[j] = [(i, delay)]
                    else:
                        edges.append((i, delay))
            queue = queue_indices.get(task.resource)
            if queue is None:
                queue_indices[task.resource] = [i]
            else:
                chain_next[queue[-1]] = i
                indeg[i] += 1
                queue.append(i)
    except KeyError:
        _validate(tasks)  # raises the unknown-dependency error
        raise
    pending = indeg.copy() if record_trace else None

    # Kahn sweep: a task's start is final once its last predecessor resolved.
    starts = [0.0] * n
    ends = [0.0] * n
    stack = [i for i in range(n) if not indeg[i]]
    pop = stack.pop
    push = stack.append
    resolved = 0
    while stack:
        u = pop()
        resolved += 1
        profile = profile_of[u]
        end = (
            starts[u] + durations[u]
            if profile is None
            else profile.finish_time(starts[u], durations[u])
        )
        ends[u] = end
        edges = out[u]
        if edges is not None:
            for v, delay in edges:
                t = end + delay
                if t > starts[v]:
                    starts[v] = t
                d = indeg[v] - 1
                indeg[v] = d
                if not d:
                    push(v)
        v = chain_next[u]
        if v >= 0:
            if end > starts[v]:
                starts[v] = end
            d = indeg[v] - 1
            indeg[v] = d
            if not d:
                push(v)
    if resolved < n:
        # A queue resolves a prefix; its first unresolved task is its head.
        heads = (next((i for i in queue if indeg[i]), None) for queue in queue_indices.values())
        raise _stuck_error([names[i] for i in heads if i is not None])

    # Left-fold python floats in queue order (the order a resource runs them).
    busy = {
        resource: sum([ends[i] - starts[i] for i in queue])
        for resource, queue in queue_indices.items()
    }
    work = {
        resource: sum([durations[i] for i in queue])
        for resource, queue in queue_indices.items()
    }
    trace = None
    if record_trace:
        trace = Trace()
        for i in _completion_order(tasks, queue_indices, out, chain_next, pending, ends):
            task = tasks[i]
            trace.record(task.resource, task.name, starts[i], ends[i], task.category)
    return ReplayResult(
        makespan=max(ends) if ends else 0.0,
        spans=dict(zip(names, zip(starts, ends))),
        resources=list(queue_indices),
        trace=trace,
        busy=busy,
        work=work,
    )


def _completion_order(
    tasks: list[ReplayTask],
    queue_indices: dict[str, list[int]],
    out: list[list[tuple[int, float]] | None],
    chain_next: list[int],
    pending: list[int],
    ends: list[float],
) -> list[int]:
    """Task indices in the order an event-driven replay would finish them.

    An event loop dispatches a task when the finish of its last predecessor
    (a dependency or the previous task on its resource) is processed; the
    tasks one finish releases are dispatched in resource first-appearance
    order, and tasks without predecessors go first, also in resource order.
    Finishes are processed by ``(end, dispatch sequence)``.  A heap merge over
    the sweep's edges reproduces that order; it holds at most one running
    task per resource, so the merge costs O(n log resources).
    """
    rank = {resource: position for position, resource in enumerate(queue_indices)}
    resource_rank = [rank[task.resource] for task in tasks]
    heap = []
    sequence = 0
    for queue in queue_indices.values():
        if not pending[queue[0]]:
            heap.append((ends[queue[0]], sequence, queue[0]))
            sequence += 1
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)[2]
        order.append(u)
        released = []
        for v, _ in out[u] or ():
            pending[v] -= 1
            if not pending[v]:
                released.append(v)
        v = chain_next[u]
        if v >= 0:
            pending[v] -= 1
            if not pending[v]:
                released.append(v)
        released.sort(key=resource_rank.__getitem__)
        for v in released:
            heapq.heappush(heap, (ends[v], sequence, v))
            sequence += 1
    return order


def _validate(tasks: list[ReplayTask]) -> None:
    by_name = set()
    for task in tasks:
        if task.name in by_name:
            raise ValueError(f"duplicate task name {task.name!r}")
        by_name.add(task.name)
    for task in tasks:
        for dep, _ in task.deps:
            if dep not in by_name:
                raise ValueError(f"task {task.name!r} depends on unknown task {dep!r}")


def _stuck_error(stuck: list[str]) -> RuntimeError:
    return RuntimeError(
        f"replay deadlocked: tasks {stuck} wait on dependencies that can "
        "never finish (cyclic schedule?)"
    )
