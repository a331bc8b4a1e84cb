"""The joint auto-parallelism planner: search, prune, pick, emit, replay.

``search_plan`` answers ROADMAP open item 1 -- "given this workload and
cluster, what configuration should I run?" -- by sweeping TP degree x
pipeline stages x microbatch count x schedule x overlap on/off and pricing
every candidate through one shared plan store, so an operator shape tuned
for one configuration is reused by every other configuration that produces
it (the reported hit rate is the measure of that sharing).

The search works in *batches*: one :class:`~repro.pp.PipelineEstimator`
run prices a (tp, stages, microbatches, partition) cell under every
schedule and every execution method at once, because the estimator already
generates and replays all of them from the same priced stream -- the
schedule and overlap axes are free riders on one batch.  Each batch
contributes ``len(schedules) x len(methods)`` candidate points; the
frontier and the winner are chosen over the points.

Dominated batches are pruned *before* being priced: a batch's step latency
is bounded below by ``microbatches x bottleneck stage useful work`` (the
bottleneck stage is a serial resource that must execute every cell, and
the perfect-overlap method under-estimates every realizable one) and its
memory by the cheapest schedule's exact in-flight accounting, so when an
already-priced point beats both bounds, no point of the batch can reach
the frontier (ties collapse to the earlier config).  ``prune=False``
disables this; the property suite asserts the frontier is identical either
way.

The winning point is emitted as a :class:`ParallelismPlan` -- a versioned
JSON document that replays *bit-identically* through the existing
``repro pp`` / ``repro e2e`` estimation paths (:func:`verify_replay`
asserts exact float equality, not tolerance).
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.cluster import ClusterSpec
from repro.core.config import DEFAULT_SETTINGS, OverlapSettings
from repro.e2e import estimate_models
from repro.plan.frontier import PlanPoint, pareto_frontier
from repro.plan.memory import peak_activation_bytes
from repro.plan.report import PlanSearchReport
from repro.plan.space import SkippedCandidate, enumerate_shells
from repro.pp import PipelineEstimator, estimate_pipelines
from repro.pp.estimator import PipelineEstimate
from repro.pp.pricing import price_pipeline
from repro.pp.schedule import KNOWN_SCHEDULES
from repro.workloads.pipeline import (
    PipelineWorkload,
    build_pipeline_workload,
    check_pipeline_inputs,
)

__all__ = [
    "ParallelismPlan",
    "search_plan",
    "estimate_plan",
    "verify_replay",
]

#: Execution methods a plan can select (the overlap on/off axis).  The
#: perfect-overlap bound is priced anyway (it rides along in every batch)
#: but is not a runnable configuration, so it never becomes a point.
PLAN_METHODS = ("non-overlap", "overlap")

PLAN_VERSION = 1


@dataclass(frozen=True)
class ParallelismPlan:
    """One winning configuration, serialisable and bit-identically replayable."""

    workload: str
    tokens: int
    layers: int | None
    cluster: ClusterSpec
    tp: int
    stages: int
    microbatches: int
    partition: tuple[int, ...]
    schedule: str
    method: str
    seed: int
    predicted: dict = field(default_factory=dict)

    #: The JSON schema version :meth:`to_dict` writes (a class constant).
    version = PLAN_VERSION

    def describe(self) -> str:
        return (
            f"{self.workload}: TP={self.tp} x PP={self.stages} "
            f"(partition {self.partition}), {self.microbatches} microbatches, "
            f"{self.schedule} schedule, {self.method} execution"
        )

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "workload": self.workload,
            "tokens": self.tokens,
            "layers": self.layers,
            "cluster": self.cluster.to_dict(),
            "tp": self.tp,
            "stages": self.stages,
            "microbatches": self.microbatches,
            "partition": list(self.partition),
            "schedule": self.schedule,
            "method": self.method,
            "seed": self.seed,
            "predicted": self.predicted,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ParallelismPlan":
        version = payload.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported plan version {version} (expected {PLAN_VERSION})")
        return cls(
            workload=payload["workload"],
            tokens=payload["tokens"],
            layers=payload.get("layers"),
            cluster=ClusterSpec.from_dict(payload.get("cluster", {})),
            tp=payload["tp"],
            stages=payload["stages"],
            microbatches=payload["microbatches"],
            partition=tuple(payload["partition"]),
            schedule=payload["schedule"],
            method=payload["method"],
            seed=payload.get("seed", 0),
            predicted=payload.get("predicted", {}),
        )

    def save(self, path: str | Path) -> Path:
        from repro.atomic import atomic_write_text

        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "ParallelismPlan":
        from repro.atomic import read_json

        return read_json(path, cls.from_dict)


@dataclass
class _Batch:
    """One (tp, stages, microbatches, partition) cell ready to price."""

    tp: int
    stages: int
    microbatches: int
    partition: tuple[int, ...]
    workload: PipelineWorkload
    lb_latency: float
    lb_memory: float

    @property
    def sort_key(self) -> tuple:
        return (self.lb_latency, self.tp, self.microbatches, self.partition)

    def skip_dict(self, reason: str) -> dict:
        return {
            "tp": self.tp,
            "stages": self.stages,
            "microbatches": self.microbatches,
            "partition": list(self.partition),
            "reason": reason,
            "lb_step_latency": self.lb_latency,
            "lb_peak_activation_bytes": self.lb_memory,
        }


def _memory_lower_bound(
    schedules: Sequence[str], stage_layers: tuple[int, ...], microbatches: int, act: float
) -> float:
    """Min over schedules of each schedule's activation-memory floor.

    GPipe's peak is exactly ``M`` boundary tensors; 1F1B's per-stage peak is
    exactly ``min(M, S - s)`` full stage states (its cell order depends only
    on the shape, not the durations); zero-bubble frees activations at the
    *deferred* W cell, so its peak is never below 1F1B's.
    """
    num_stages = len(stage_layers)
    bounds = []
    for name in schedules:
        if name == "gpipe":
            bounds.append(microbatches * act)
        else:
            bounds.append(
                max(
                    min(microbatches, num_stages - s) * act * layers
                    for s, layers in enumerate(stage_layers)
                )
            )
    return min(bounds)


def _batch_points(
    batch: _Batch,
    estimate: PipelineEstimate,
    schedules: Sequence[str],
    methods: Sequence[str],
) -> list[PlanPoint]:
    points = []
    for name in schedules:
        schedule_estimate = estimate.schedules[name]
        non_overlap = schedule_estimate.methods["non-overlap"].step_latency
        for method in methods:
            result = schedule_estimate.methods[method]
            memory = peak_activation_bytes(
                estimate.stage_layers,
                estimate.activation_bytes,
                result.stage_peak_microbatches,
                recompute=(name == "gpipe"),
            )
            points.append(
                PlanPoint(
                    workload=batch.workload.name,
                    tp=batch.tp,
                    stages=batch.stages,
                    microbatches=batch.microbatches,
                    partition=batch.partition,
                    schedule=name,
                    method=method,
                    step_latency=result.step_latency,
                    peak_activation_bytes=memory,
                    bubble_ratio=result.bubble_ratio,
                    speedup=non_overlap / result.step_latency,
                )
            )
    return points


def search_plan(
    workload: str = "llama3-training",
    cluster: ClusterSpec | None = None,
    tokens: int | None = None,
    layers: int | None = None,
    tp_degrees: Sequence[int] | None = None,
    microbatch_counts: Sequence[int] | None = None,
    schedules: Sequence[str] = tuple(KNOWN_SCHEDULES),
    methods: Sequence[str] = PLAN_METHODS,
    settings: OverlapSettings = DEFAULT_SETTINGS,
    max_configs: int | None = None,
    prune: bool = True,
    deadline_s: float | None = None,
) -> PlanSearchReport:
    """Search the joint parallelism space of one workload on one cluster.

    Each feasible (tp, stages, microbatches) shell is one batch on the
    balanced stage partition of
    :func:`~repro.workloads.pipeline.partition_layers` (the registry's
    transformer stacks repeat one layer, so that split already has the
    smallest bottleneck stage).  ``max_configs`` bounds the number of priced
    batches (skipped ones are reported, never silently dropped);
    ``prune=False`` disables dominated-batch pruning.

    ``deadline_s`` bounds the *wall clock* of the pricing loop: batches are
    priced best-bound-first, so when the budget runs out the report holds the
    best-so-far frontier, the remaining batches land in ``space["pruned"]``
    and ``space["truncated"]`` is set.  The deadline reads
    :func:`repro.obs.now`, so an active observability session's fake clock
    drives it too.
    """
    cluster = cluster or ClusterSpec()
    estimator = PipelineEstimator(settings)
    schedules = tuple(name for name in KNOWN_SCHEDULES if name in set(schedules))
    if not schedules:
        raise ValueError(f"no known schedules requested; known: {sorted(KNOWN_SCHEDULES)}")
    for method in methods:
        if method not in PLAN_METHODS:
            raise ValueError(f"unknown plan method {method!r}; known: {PLAN_METHODS}")
    # Inputs that fail every shell alike are the caller's error, not
    # infeasible candidates.
    check_pipeline_inputs(workload, tokens)
    if layers is not None and layers < 1:
        raise ValueError("layers must be >= 1")
    if max_configs is not None and max_configs < 1:
        raise ValueError("max_configs must be >= 1")
    if deadline_s is not None and not math.isfinite(deadline_s):
        raise ValueError(f"the deadline must be finite, got {deadline_s}")
    if deadline_s is not None and deadline_s < 0:
        raise ValueError("the deadline must be >= 0 seconds")

    # Search accounting is registered up front so the counters appear in every
    # profile snapshot, even for searches that never prune or skip a batch.
    evaluated_counter = obs.counter("plan.batches_evaluated")
    pruned_counter = obs.counter("plan.batches_pruned")
    skipped_counter = obs.counter("plan.batches_skipped")

    # -- expand each shell into one priced-workload batch -------------------------
    with obs.span("plan.enumerate", workload=workload) as enumerate_span:
        shells, skipped = enumerate_shells(cluster, tp_degrees, microbatch_counts)
        hits_before, misses_before = estimator.plan_store.hits, estimator.plan_store.misses
        batches: list[_Batch] = []
        topologies: dict[int, object] = {}
        for shell in shells:
            if shell.tp not in topologies:
                try:
                    topologies[shell.tp] = cluster.topology_for_tp(shell.tp)
                except ValueError as error:
                    topologies[shell.tp] = error
            topology = topologies[shell.tp]
            if isinstance(topology, Exception):
                skipped.append(
                    SkippedCandidate(shell.tp, shell.stages, shell.microbatches, str(topology))
                )
                continue
            try:
                pipeline_workload = build_pipeline_workload(
                    workload,
                    stages=shell.stages,
                    microbatches=shell.microbatches,
                    tokens=tokens,
                    device=cluster.device_spec,
                    topology=topology,
                    layers=layers,
                )
            except (KeyError, ValueError) as error:
                skipped.append(
                    SkippedCandidate(shell.tp, shell.stages, shell.microbatches, str(error))
                )
                continue
            # One layer's perfect-overlap cost through the shared plan store
            # (cheap: the stream's shapes are cached after the first shell
            # that produces them) bounds the batch's step latency.
            bound0 = price_pipeline(pipeline_workload, estimator.e2e).vectors["theoretical"][0]
            stage_layers = pipeline_workload.stage_layers
            per_layer_bound = (bound0.forward + bound0.dgrad + bound0.wgrad) / stage_layers[0]
            batches.append(
                _Batch(
                    tp=shell.tp,
                    stages=shell.stages,
                    microbatches=shell.microbatches,
                    partition=stage_layers,
                    workload=pipeline_workload,
                    lb_latency=shell.microbatches * per_layer_bound * max(stage_layers),
                    lb_memory=_memory_lower_bound(
                        schedules,
                        stage_layers,
                        shell.microbatches,
                        pipeline_workload.activation_bytes,
                    ),
                )
            )
        skipped_counter.inc(len(skipped))
        enumerate_span.note(shells=len(shells), batches=len(batches), skipped=len(skipped))

    # -- price batches best-bound-first, pruning dominated ones ------------------
    points: list[PlanPoint] = []
    estimates: dict[tuple, PipelineEstimate] = {}
    pruned: list[dict] = []
    evaluated = 0
    truncated = False
    with obs.span("plan.price") as price_span:
        search_start = obs.now()
        for batch in sorted(batches, key=lambda b: b.sort_key):
            if deadline_s is not None and obs.now() - search_start >= deadline_s:
                truncated = True
                pruned.append(batch.skip_dict("wall-clock deadline exceeded"))
                pruned_counter.inc()
                continue
            if max_configs is not None and evaluated >= max_configs:
                pruned.append(batch.skip_dict("search budget exhausted (max_configs)"))
                pruned_counter.inc()
                continue
            if prune and any(
                p.step_latency <= batch.lb_latency and p.peak_activation_bytes <= batch.lb_memory
                for p in points
            ):
                pruned.append(batch.skip_dict("dominated by a priced point (lower bounds)"))
                pruned_counter.inc()
                continue
            with obs.span(
                "plan.price_batch",
                tp=batch.tp,
                stages=batch.stages,
                microbatches=batch.microbatches,
            ):
                estimate = estimator.estimate(batch.workload, schedules=schedules)
            estimates[(batch.tp, batch.stages, batch.microbatches, batch.partition)] = estimate
            points.extend(_batch_points(batch, estimate, schedules, methods))
            evaluated += 1
            evaluated_counter.inc()
        price_span.note(evaluated=evaluated, pruned=len(pruned), truncated=truncated)

    with obs.span("plan.frontier"):
        frontier = pareto_frontier(points)
        winner_plan = None
        if frontier:
            winner = min(
                points, key=lambda p: (p.step_latency, p.peak_activation_bytes, p.config_key)
            )
            estimate = estimates[(winner.tp, winner.stages, winner.microbatches, winner.partition)]
            e2e = estimate.microbatch_estimate
            winner_plan = ParallelismPlan(
                workload=workload,
                tokens=estimate.microbatch_tokens * winner.microbatches,
                layers=layers,
                cluster=cluster,
                tp=winner.tp,
                stages=winner.stages,
                microbatches=winner.microbatches,
                partition=winner.partition,
                schedule=winner.schedule,
                method=winner.method,
                seed=settings.seed,
                predicted={
                    "step_latency": winner.step_latency,
                    "peak_activation_bytes": winner.peak_activation_bytes,
                    "bubble_ratio": winner.bubble_ratio,
                    "speedup": winner.speedup,
                    "microbatch_tokens": estimate.microbatch_tokens,
                    "e2e": {
                        "overlap_total": e2e.overlap_total,
                        "non_overlap_total": e2e.non_overlap_total,
                        "theoretical_total": e2e.theoretical_total,
                    },
                },
            )

    lookups = (estimator.plan_store.hits - hits_before) + (
        estimator.plan_store.misses - misses_before
    )
    search_hits = estimator.plan_store.hits - hits_before
    plan_stats = dict(estimator.plan_store.stats())
    plan_stats["search_lookups"] = lookups
    plan_stats["search_hit_rate"] = search_hits / lookups if lookups else 0.0
    return PlanSearchReport(
        meta={
            "workload": workload,
            "tokens": tokens,
            "layers": layers,
            "cluster": cluster.to_dict(),
            "tp_degrees": sorted({shell.tp for shell in shells}),
            "microbatch_counts": sorted({shell.microbatches for shell in shells}),
            "schedules": list(schedules),
            "methods": list(methods),
            "seed": settings.seed,
            "prune": prune,
            "max_configs": max_configs,
            "deadline_s": deadline_s,
        },
        points=points,
        frontier=frontier,
        winner=winner_plan,
        space={
            "total_gpus": cluster.total_gpus,
            "shells": len(shells),
            "batches": len(batches),
            "evaluated": evaluated,
            "points": len(points),
            "skipped": [skip.to_dict() for skip in skipped],
            "pruned": pruned,
            "truncated": truncated,
        },
        plan_stats=plan_stats,
    )


def replay_plan(plan: ParallelismPlan, record_trace: bool = False):
    """Replay one plan through the ``repro pp`` estimation path (fresh store).

    Prices under default settings at the plan's seed, as the search did.

    Returns the full :class:`~repro.pp.report.PipelineReport` (one workload,
    the plan's schedule only) -- what ``repro pp --plan`` renders.
    """
    return estimate_pipelines(
        names=[plan.workload],
        stages=plan.stages,
        microbatches=plan.microbatches,
        schedules=(plan.schedule,),
        tokens=plan.tokens,
        device=plan.cluster.device_spec,
        topology=plan.cluster.topology_for_tp(plan.tp),
        layers=plan.layers,
        settings=OverlapSettings(seed=plan.seed),
        record_trace=record_trace,
        partition=plan.partition,
    )


def estimate_plan(plan: ParallelismPlan) -> PipelineEstimate:
    """The single workload estimate of :func:`replay_plan`."""
    return replay_plan(plan).estimates[0]


def verify_replay(plan: ParallelismPlan) -> dict:
    """Replay a plan through ``repro pp`` and ``repro e2e``; compare bit-exactly.

    Returns per-quantity ``{"predicted", "replayed", "matches"}`` entries and
    an overall ``"matches"`` flag.  Matching means Python float equality --
    the planner's numbers are reproducible, not merely approximable.
    """
    estimate = estimate_plan(plan)
    result = estimate.schedules[plan.schedule].methods[plan.method]
    memory = peak_activation_bytes(
        estimate.stage_layers,
        estimate.activation_bytes,
        result.stage_peak_microbatches,
        recompute=(plan.schedule == "gpipe"),
    )
    e2e_report = estimate_models(
        names=[plan.workload],
        tokens=plan.predicted["microbatch_tokens"],
        device=plan.cluster.device_spec,
        topology=plan.cluster.topology_for_tp(plan.tp),
        layers=plan.layers,
        settings=OverlapSettings(seed=plan.seed),
    )
    e2e = e2e_report.estimates[0]
    predicted_e2e = plan.predicted.get("e2e", {})
    pairs = {
        "step_latency": (plan.predicted["step_latency"], result.step_latency),
        "peak_activation_bytes": (plan.predicted["peak_activation_bytes"], memory),
        "bubble_ratio": (plan.predicted["bubble_ratio"], result.bubble_ratio),
        "e2e_overlap_total": (predicted_e2e.get("overlap_total"), e2e.overlap_total),
        "e2e_non_overlap_total": (
            predicted_e2e.get("non_overlap_total"), e2e.non_overlap_total
        ),
        "e2e_theoretical_total": (
            predicted_e2e.get("theoretical_total"), e2e.theoretical_total
        ),
    }
    checks = {
        name: {"predicted": predicted, "replayed": replayed, "matches": predicted == replayed}
        for name, (predicted, replayed) in pairs.items()
    }
    return {"checks": checks, "matches": all(entry["matches"] for entry in checks.values())}
