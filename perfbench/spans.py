"""Span tracing of the ``repro`` layers from outside the package.

The traced run wraps the public entry points of each layer (the
``TARGETS`` table) without touching ``src/repro``.  A function imported by
name into other modules is re-bound in every ``repro`` module namespace
that holds it; methods are patched on the class that defines them.

Spans stay in memory as ``(span_id, parent_id, query_id, layer, start_ns,
end_ns)`` tuples.  A layer's self time is its span durations minus the
durations of its direct child spans, accumulated as spans close, so the
self times of one query's span tree add up to its root span exactly.

Sweep jobs run in forked worker processes.  The wrapped worker entry point
traces the job under a ``sweep.worker`` root and ships its tracer state back
inside the job's record; the parent pops it before the record is stored.
Worker self time is kept apart from the query process's wall-time table.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Callable

#: Record key that carries a worker's tracer state back to the parent.
FERRY_KEY = "__perfbench_trace__"


class Tracer:
    def __init__(self) -> None:
        self.query: int | None = None
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # open frames: [layer, span_id, child_ns]
        self._next_id = 1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.worker_self_ns: dict[str, int] = defaultdict(int)
        self.worker_calls: dict[str, int] = defaultdict(int)
        self.worker_spans: list[tuple] = []
        #: (problem, partition, predicted latency) of the last tune, paired
        #: with the executor's simulation of that partition.
        self.last_tune: tuple | None = None

    # -- spans -------------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str | None = None, before=None, after=None,
             only_under: str | None = None) -> Callable:
        """``fn`` inside a ``layer`` span (no span for ``layer=None``), with count hooks.

        ``before(tracer, args)`` returns a context handed to
        ``after(tracer, args, result, duration_ns, context)``.  With
        ``only_under`` the span is recorded only when the innermost open span
        belongs to that layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if only_under is not None and not (stack and stack[-1][0] == only_under):
                return fn(*args, **kwargs)
            context = before(tracer, args) if before is not None else None
            frame = None
            if layer is not None:
                parent = stack[-1] if stack else None
                frame = [layer, tracer._next_id, 0]
                tracer._next_id += 1
                stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if frame is not None:
                    stack.pop()
                    duration = end - start
                    if parent is not None:
                        parent[2] += duration
                    tracer.self_ns[layer] += duration - frame[2]
                    tracer.calls[layer] += 1
                    tracer.spans.append((frame[1], parent[1] if parent else None,
                                         tracer.query, layer, start, end))
            if after is not None:
                after(tracer, args, result, end - start, context)
            return result

        return wrapper

    def wrap_iterator(self, fn: Callable, layer: str) -> Callable:
        """``fn`` returns an iterator; each ``next()`` on it is a ``layer`` span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            step = tracer.wrap(lambda: next(iterator), layer)

            def timed():
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item

            return timed()

        return wrapper

    def add_plan_efficiency(self, sequential: float, overlap: float, bound: float) -> None:
        """Count (sequential - overlap) / (sequential - bound) of one freshly priced plan."""
        if sequential > bound:
            self.counts["core.efficiency_sum"] += (sequential - overlap) / (sequential - bound)
            self.counts["core.efficiency_n"] += 1

    def root_ns(self) -> int:
        """Summed duration of the query process's root spans."""
        return sum(end - start for _, parent, _, _, start, end in self.spans if parent is None)

    # -- worker processes --------------------------------------------------------

    def export(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
        }

    def merge_worker(self, state: dict) -> None:
        for layer, value in state["self_ns"].items():
            self.worker_self_ns[layer] += value
        for layer, value in state["calls"].items():
            self.worker_calls[layer] += value
        for name, value in state["counts"].items():
            self.counts[name] += value
        self.worker_spans.extend(state["spans"])

    def layer_ns(self, layer: str) -> int:
        """Self time of ``layer`` summed over the query process and its workers."""
        return self.self_ns.get(layer, 0) + self.worker_self_ns.get(layer, 0)

    def layer_calls(self, layer: str) -> int:
        return self.calls.get(layer, 0) + self.worker_calls.get(layer, 0)

    # -- installation ------------------------------------------------------------

    def install(self, targets=None) -> None:
        """Patch every target; a target the code no longer has is listed in ``missing``."""
        for module_name, path, make in targets if targets is not None else TARGETS:
            try:
                owner, name, raw = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                self._set(owner, name, raw, classmethod(make(self, raw.__func__)))
            elif isinstance(owner, type):
                self._set(owner, name, raw, make(self, raw))
            else:
                wrapped = make(self, raw)
                for module in list(sys.modules.values()):
                    bound_in = getattr(module, "__name__", "")
                    if bound_in != "repro" and not bound_in.startswith("repro."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, attr, raw, wrapped)

    def _set(self, owner, name: str, raw, wrapped) -> None:
        self._installed.append((owner, name, raw))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) of ``module.path``."""
    owner = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


# -- count hooks ------------------------------------------------------------------


def _after_tune(tracer, args, result, duration, context) -> None:
    tracer.counts["tuner.candidates"] += result.candidates_evaluated
    tracer.counts["tuner.fallbacks"] += not result.use_overlap
    tracer.last_tune = (args[1], result.partition, result.predicted_latency)


def _after_simulate(tracer, args, result, duration, context) -> None:
    executor, partition = args[0], args[1]
    tracer.counts["executor.tiles"] += executor.gemm_contended.num_tiles
    last = tracer.last_tune
    if last is not None and last[0] is executor.problem and last[1] == partition:
        tracer.counts["tuner.pred_error_sum"] += abs(last[2] - result.latency) / result.latency
        tracer.counts["tuner.pred_error_n"] += 1
        tracer.last_tune = None


def _hits(tracer, args) -> int:
    return args[0].hits


def _after_lookup(tracer, args, plan, duration, hits_before) -> None:
    tracer.counts["plans.lookups"] += 1
    if args[0].hits > hits_before:
        tracer.counts["plans.hits"] += 1
        return
    tracer.counts["plans.miss_ns"] += duration
    tracer.add_plan_efficiency(plan.non_overlap_latency, plan.overlap_latency,
                               plan.theoretical_latency)


def _after_repeat_hits(tracer, args, result, duration, context) -> None:
    lookups = max(0, args[1])
    tracer.counts["plans.lookups"] += lookups
    tracer.counts["plans.hits"] += lookups


def _after_cell_lookup(tracer, args, cell, duration, context) -> None:
    tracer.counts["priced_cells.lookups"] += 1
    tracer.counts["priced_cells.hits"] += cell is not None


def _events(tracer, args) -> int:
    return args[0].processed_events


def _after_engine(tracer, args, result, duration, events_before) -> None:
    tracer.counts["sim.engine.events"] += args[0].processed_events - events_before


def _after_schedule(tracer, args, schedule, duration, context) -> None:
    tracer.counts["pp.schedule.cells"] += len(schedule.cells())


def _after_replay(tracer, args, result, duration, context) -> None:
    tracer.counts["sim.replay.tasks"] += len(args[0])


def _after_search(tracer, args, report, duration, context) -> None:
    tracer.counts["plan.configs_priced"] += len(report.points)
    tracer.counts["plan.batches"] += report.space["batches"]
    tracer.counts["plan.batches_pruned"] += len(report.space["pruned"])


def _after_serve(tracer, args, result, duration, context) -> None:
    tracer.counts["serve.run_ns"] += duration


def _after_pool(tracer, args, records, duration, context) -> None:
    for record in records:
        state = record.pop(FERRY_KEY, None)
        if state is not None:
            tracer.merge_worker(state)


# -- target table -----------------------------------------------------------------


def _span(layer: str, before=None, after=None, only_under: str | None = None):
    return lambda tracer, fn: tracer.wrap(fn, layer, before, after, only_under)


def _count(before=None, after=None):
    return lambda tracer, fn: tracer.wrap(fn, None, before, after)


def _waits(layer: str):
    return lambda tracer, fn: tracer.wrap_iterator(fn, layer)


def _worker(tracer: Tracer, fn: Callable) -> Callable:
    """The sweep worker's job entry point: trace the job, ship the state in the record."""
    traced = tracer.wrap(fn, "sweep.worker")

    @functools.wraps(fn)
    def wrapper(payload):
        query = tracer.query
        tracer.reset()  # drop the parent's state copied by fork
        tracer.query = query
        record = traced(payload)
        if record.get("status") == "ok" and not record.get("priced_cell_hit"):
            tracer.add_plan_efficiency(record["non_overlap_latency"], record["overlap_latency"],
                                       record["theoretical_latency"])
        record[FERRY_KEY] = tracer.export()
        return record

    return wrapper


_SCHEDULER = ("add", "remove", "next_batch", "steady_decode_run", "advance_decodes", "apply")
_INJECTOR = ("is_down", "next_up", "crash_times", "straggler_finish", "comm_factor_at",
             "drop_probability_at", "drops", "availability")
_BASELINES = ("NonOverlapBaseline", "VanillaDecompositionBaseline", "AsyncTPBaseline",
              "FluxFusionBaseline")

#: (module, attribute path, wrapper factory) of every traced entry point.
TARGETS = [
    ("repro.core.tuner", "PredictiveTuner.tune", _span("core.tuner", after=_after_tune)),
    ("repro.core.executor", "OverlapExecutor.simulate",
     _span("core.executor", after=_after_simulate)),
    ("repro.core.executor", "OverlapExecutor.simulate_sequential", _span("core.executor")),
    ("repro.core.executor", "OverlapExecutor.theoretical_latency", _span("core.executor")),
    ("repro.core.executor", "OverlapExecutor.group_payload_bytes",
     _span("core.executor.payload")),
    ("repro.core.signaling", "SignalSchedule.from_tile_times", _span("core.signaling")),
    ("repro.gpu.swizzle", "execution_order", _span("gpu.swizzle")),
    ("repro.gpu.swizzle", "swizzled_order", _span("gpu.swizzle")),
    *[("repro.core.baselines", f"{name}.latency", _span("core.baselines"))
      for name in _BASELINES],
    ("repro.plans.cache", "PlanCache.lookup", _span("plans", before=_hits, after=_after_lookup)),
    ("repro.plans.cache", "PlanCache.count_repeat_hits", _count(after=_after_repeat_hits)),
    ("repro.plans.store", "PricedCellStore.lookup", _count(after=_after_cell_lookup)),
    ("repro.e2e.estimator", "EndToEndEstimator.estimate", _span("e2e.estimate")),
    ("repro.sim.engine", "EventEngine.run", _count(before=_events, after=_after_engine)),
    ("repro.pp.schedule", "generate_schedule", _span("pp.schedule", after=_after_schedule)),
    ("repro.pp.schedule", "Schedule.tasks", _span("pp.schedule")),
    ("repro.pp.schedule", "stage_peak_inflight", _span("pp.schedule")),
    ("repro.pp.pricing", "price_pipeline", _span("pp.price")),
    ("repro.sim.replay", "replay_tasks", _span("sim.replay", after=_after_replay)),
    ("repro.sim.trace", "Trace.record", _span("sim.trace", only_under="sim.replay")),
    ("repro.plan.planner", "search_plan", _span("plan.search", after=_after_search)),
    ("repro.serve.simulator", "ServingSimulator.run", _span("serve.run", after=_after_serve)),
    *[("repro.serve.scheduler", f"ContinuousBatchingScheduler.{name}", _span("serve.scheduler"))
      for name in _SCHEDULER],
    *[("repro.faults.injector", f"FaultInjector.{name}", _span("faults")) for name in _INJECTOR],
    ("repro.faults.plan", "build_fault_preset", _span("faults")),
    ("repro.faults.policy", "RetryPolicy.delay", _span("faults")),
    ("repro.sweep.runner", "SweepRunner.run", _span("sweep.run")),
    ("repro.sweep.runner", "as_completed", _waits("sweep.wait")),
    ("repro.sweep.store", "ResultStore.append", _span("sweep.store")),
    ("repro.plans.store", "PricedCellStore.save", _span("sweep.store")),
    ("repro.sweep.runner", "_execute_in_worker", _worker),
    ("repro.sweep.runner", "SweepRunner._run_pool", _count(after=_after_pool)),
]
