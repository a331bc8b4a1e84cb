"""Event-by-event replay on the engine: the semantics :func:`replay_tasks` sweeps.

Every resource head starts as soon as its resource is free and its
dependencies (plus their delays) have finished; each finish event records
its span, frees the resource and pumps every resource head again.  Trace
spans are recorded in finish-event order, which defines the span order the
production sweep must reproduce.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.sim.engine import EventEngine
from repro.sim.replay import ReplayResult, ReplayTask, SpeedProfile, _stuck_error, _validate
from repro.sim.trace import Trace


def replay_reference(
    tasks: list[ReplayTask],
    record_trace: bool = False,
    resource_profiles: Mapping[str, SpeedProfile] | None = None,
) -> ReplayResult:
    """Greedy list scheduling executed event by event on :class:`EventEngine`."""
    _validate(tasks)
    queues: dict[str, list[ReplayTask]] = {}
    for task in tasks:
        queues.setdefault(task.resource, []).append(task)
    resources = list(queues)

    engine = EventEngine()
    trace = Trace() if record_trace else None
    heads = dict.fromkeys(resources, 0)  # next queue index per resource
    running: dict[str, bool] = dict.fromkeys(resources, False)
    free_at: dict[str, float] = dict.fromkeys(resources, 0.0)
    ends: dict[str, float] = {}
    spans: dict[str, tuple[float, float]] = {}

    def finish(task: ReplayTask, start: float) -> None:
        ends[task.name] = engine.now
        spans[task.name] = (start, engine.now)
        if trace is not None:
            trace.record(task.resource, task.name, start, engine.now, task.category)
        running[task.resource] = False
        free_at[task.resource] = engine.now
        pump()

    def pump() -> None:
        # Start every resource head whose dependencies have completed.  A
        # completion can unblock heads on any resource, so scan them all.
        for resource in resources:
            if running[resource] or heads[resource] >= len(queues[resource]):
                continue
            task = queues[resource][heads[resource]]
            if any(dep not in ends for dep, _ in task.deps):
                continue
            ready = free_at[resource]
            for dep, delay in task.deps:
                ready = max(ready, ends[dep] + delay)
            start = max(ready, engine.now)
            heads[resource] += 1
            running[resource] = True
            profile = (resource_profiles or {}).get(resource)
            end = start + task.duration if profile is None else profile.finish_time(
                start, task.duration
            )
            engine.schedule(end, finish, task, start)

    engine.schedule(0.0, pump)
    engine.run()
    stuck = [
        queues[resource][heads[resource]].name
        for resource in resources
        if heads[resource] < len(queues[resource])
    ]
    if stuck:
        raise _stuck_error(stuck)

    busy = {
        resource: sum(spans[task.name][1] - spans[task.name][0] for task in queue)
        for resource, queue in queues.items()
    }
    work = {resource: sum(task.duration for task in queue) for resource, queue in queues.items()}
    makespan = max((end for _, end in spans.values()), default=0.0)
    return ReplayResult(
        makespan=makespan, spans=spans, resources=resources, trace=trace, busy=busy, work=work
    )
