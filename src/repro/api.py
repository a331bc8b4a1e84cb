"""The public Python facade of the reproduction.

One function per CLI subcommand, all consuming the same
:class:`~repro.cluster.ClusterSpec` and all returning report objects that
share the :class:`~repro.analysis.reporting.ReportMixin` protocol
(``to_dict()`` / ``to_json()`` / ``summary_table()`` / ``save_json()``)::

    import repro.api as api

    report = api.estimate(["llama3-training"], smoke=True)
    print(report.summary_table())

    result = api.plan(cluster=api.ClusterSpec(gpus=8), smoke=True)
    result.winner.save("plan.json")

The CLI subcommands are thin wrappers over these functions -- ``--json``
output and ``to_dict()`` are the same payload by construction, which the
parity tests under ``tests/test_api.py`` assert per subcommand.

``smoke=True`` everywhere means "CI-sized defaults for any argument left at
``None``" and mirrors the corresponding ``--smoke`` flag bit-for-bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path

from repro import obs
from repro.atomic import read_json
from repro.cluster import ClusterSpec
from repro.core.config import OverlapSettings
from repro.e2e.report import EndToEndReport, estimate_models
from repro.pp.report import PipelineReport, estimate_pipelines
from repro.pp.schedule import KNOWN_SCHEDULES
from repro.serve.report import ServeReport
from repro.sweep.report import DEFAULT_GROUP_KEYS, SweepReport

__all__ = [
    "ClusterSpec",
    "EndToEndReport",
    "PipelineReport",
    "ServeReport",
    "SweepReport",
    "estimate",
    "plan",
    "pp",
    "serve",
    "sweep",
]

#: Default serving scenario; applied to arguments left at ``None``.  The
#: ``smoke`` variant is the shared ``repro.serve.simulator.SMOKE_SCENARIO``.
SERVE_DEFAULTS = {
    "rate": 32.0,
    "requests": 64,
    "distribution": "chat",
    "workload": "llama3-70b",
    "layers": 4,
    "max_batch_tokens": 4096,
    "max_batch_size": 32,
}

#: CI-sized ``pp`` scenario and the full-run defaults; applied to arguments
#: left at ``None``.
PP_SMOKE = {"workloads": ["llama3-training"], "stages": 2, "microbatches": 4, "layers": 4}
PP_DEFAULTS = {"stages": 4, "microbatches": 8}

#: CI-sized planner search space (the ``repro plan --smoke`` scenario).
PLAN_SMOKE = {
    "layers": 4,
    "tp_degrees": (2, 4, 8),
    "microbatch_counts": (2, 4, 8),
}


def _check_names(kind: str, names: Sequence[str], known) -> None:
    """Reject a name outside ``known``: bad facade input raises ``ValueError``."""
    for name in names:
        if name not in known:
            raise ValueError(f"unknown {kind} {name!r}; known: {sorted(known)}")


def _schedules(requested: Sequence[str] | None) -> tuple[str, ...]:
    """The requested schedules (all when ``None``) in canonical order."""
    if requested is None:
        return tuple(KNOWN_SCHEDULES)
    _check_names("schedule", requested, KNOWN_SCHEDULES)
    if not requested:
        raise ValueError(f"no schedules requested; known: {sorted(KNOWN_SCHEDULES)}")
    # Canonical (bubble-decreasing) order regardless of argument order.
    return tuple(name for name in KNOWN_SCHEDULES if name in requested)


def _profiled(command: str, profile: bool, build):
    """Run ``build()`` under an observability session when ``profile`` is set.

    The report comes back with the profile snapshot attached
    (``report.profile`` / an ``observability`` section in ``to_dict()``).
    With ``profile=False`` the session is never opened, so every span and
    counter on the instrumented paths stays a no-op.
    """
    if not profile:
        return build()
    with obs.observe() as session:
        with obs.span(command):
            report = build()
        report.attach_observability(session.snapshot(command=command))
    return report


def estimate(
    workloads: Sequence[str] | None = None,
    *,
    tokens: int | None = None,
    layers: int | None = None,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    reuse: bool = True,
    record_trace: bool = False,
    smoke: bool = False,
    profile: bool = False,
) -> EndToEndReport:
    """Whole-model latency estimates (the ``repro e2e`` subcommand).

    ``workloads=None`` estimates all five paper workloads; ``smoke=True``
    shrinks every model to 2 layers unless ``layers`` is given.
    ``profile=True`` attaches an observability snapshot to the report.
    """

    def build() -> EndToEndReport:
        nonlocal layers
        from repro.workloads.e2e import workload_builders

        _check_names("workload", workloads or (), workload_builders())
        cluster_spec = cluster or ClusterSpec()
        if smoke and layers is None:
            layers = 2
        report = estimate_models(
            names=list(workloads) if workloads else None,
            tokens=tokens,
            device=cluster_spec.device_spec,
            topology=cluster_spec.resolve(),
            layers=layers,
            settings=OverlapSettings(seed=seed),
            reuse=reuse,
            record_trace=record_trace,
        )
        report.meta["smoke"] = smoke
        return report

    return _profiled("repro e2e", profile, build)


def pp(
    workloads: Sequence[str] | None = None,
    *,
    stages: int | None = None,
    microbatches: int | None = None,
    schedules: Sequence[str] | None = None,
    tokens: int | None = None,
    layers: int | None = None,
    partition: Sequence[int] | None = None,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    reuse: bool = True,
    record_trace: bool = True,
    smoke: bool = False,
    profile: bool = False,
) -> PipelineReport:
    """Pipeline-parallel schedule estimates (the ``repro pp`` subcommand).

    Arguments left at ``None`` take the full-run defaults (4 stages,
    8 microbatches, all five workloads, all three schedules) or, with
    ``smoke=True``, the CI-sized scenario in :data:`PP_SMOKE`.
    ``profile=True`` attaches an observability snapshot to the report.
    """

    def build() -> PipelineReport:
        nonlocal workloads, stages, microbatches, layers
        from repro.workloads.e2e import workload_builders

        cluster_spec = cluster or ClusterSpec()
        defaults = PP_SMOKE if smoke else PP_DEFAULTS
        if workloads is None:
            workloads = defaults.get("workloads")
        if stages is None:
            stages = defaults["stages"]
        if microbatches is None:
            microbatches = defaults["microbatches"]
        if layers is None:
            layers = defaults.get("layers")
        names = list(workloads) if workloads else sorted(workload_builders())
        _check_names("workload", names, workload_builders())
        report = estimate_pipelines(
            names=names,
            stages=stages,
            microbatches=microbatches,
            schedules=_schedules(schedules),
            tokens=tokens,
            device=cluster_spec.device_spec,
            topology=cluster_spec.resolve(),
            layers=layers,
            settings=OverlapSettings(seed=seed),
            reuse=reuse,
            record_trace=record_trace,
            partition=tuple(int(count) for count in partition) if partition is not None else None,
        )
        report.meta["smoke"] = smoke
        return report

    return _profiled("repro pp", profile, build)


def serve(
    *,
    rate: float | None = None,
    requests: int | None = None,
    duration: float | None = None,
    distribution: str | None = None,
    trace: str | None = None,
    workload: str | None = None,
    layers: int | None = None,
    max_batch_tokens: int | None = None,
    max_batch_size: int | None = None,
    plan_cache: int = 64,
    warm_cache: str | None = None,
    baseline: bool = False,
    slo_ttft: float = 1.0,
    slo_tpot: float = 0.1,
    faults: object | None = None,
    fault_preset: str | None = None,
    retry_policy: object | None = None,
    deadline: float | None = None,
    admission_limit: int | None = None,
    warm_spares: int = 0,
    failover_delay: float = 0.05,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    smoke: bool = False,
    profile: bool = False,
) -> ServeReport:
    """One online-serving simulation (the ``repro serve`` subcommand).

    Arguments left at ``None`` take :data:`SERVE_DEFAULTS` (or the CI-sized
    smoke scenario with ``smoke=True``, which also implies ``baseline``).
    Raises :class:`ValueError` when the traffic generator produces no
    requests or ``failover_delay`` is negative or not finite.

    ``faults`` (a :class:`~repro.faults.FaultPlan` or a path to its JSON) or
    ``fault_preset`` (a named preset scaled to the traffic horizon) injects a
    deterministic fault timeline; ``retry_policy`` (a
    :class:`~repro.faults.RetryPolicy` or a CLI-style spec string),
    ``deadline``, ``admission_limit`` and ``warm_spares`` configure the
    resilience policy.  Faulted runs additionally simulate the fault-free
    reference arm so the report can state goodput-under-failure.
    ``profile=True`` attaches an observability snapshot to the report.
    """

    def build() -> ServeReport:
        nonlocal baseline, cluster
        from repro.comm.topology import known_topologies
        from repro.core.tuner import GemmShapeCache
        from repro.faults import (
            FaultInjector,
            FaultPlan,
            ResiliencePolicy,
            RetryPolicy,
            build_fault_preset,
            parse_retry_policy,
        )
        from repro.serve import (
            SLO,
            PlanCache,
            PoissonArrivals,
            ServeConfig,
            ServingSimulator,
            TraceArrivals,
            length_distributions,
        )
        from repro.serve.simulator import SERVE_MODELS, SMOKE_SCENARIO

        # Checked even when no resilience policy is built.
        if not (math.isfinite(failover_delay) and failover_delay >= 0):
            raise ValueError(
                f"failover_delay must be finite and non-negative, got {failover_delay}"
            )
        scenario = {
            "rate": rate,
            "requests": requests,
            "distribution": distribution,
            "workload": workload,
            "layers": layers,
            "max_batch_tokens": max_batch_tokens,
            "max_batch_size": max_batch_size,
        }
        defaults = dict(SMOKE_SCENARIO if smoke else SERVE_DEFAULTS)
        if duration is not None:
            # An explicit duration bounds the traffic by itself; do not cap it
            # with the default request count too.
            defaults.pop("requests")
        for name, value in defaults.items():
            if scenario[name] is None:
                scenario[name] = value
        if smoke:
            baseline = True
        _check_names("workload", [scenario["workload"]], SERVE_MODELS)

        if trace:
            arrivals = TraceArrivals.from_jsonl(trace)
            traffic = f"trace {trace}"
        else:
            distributions = length_distributions()
            _check_names("length distribution", [scenario["distribution"]], distributions)
            arrivals = PoissonArrivals(
                rate_rps=scenario["rate"],
                distribution=distributions[scenario["distribution"]],
                seed=seed,
                num_requests=scenario["requests"],
                duration_s=duration,
            )
            traffic = (
                f"poisson @ {scenario['rate']:g} req/s, "
                f"{scenario['distribution']} lengths, seed {seed}"
            )
        generated = arrivals.generate()
        if not generated:
            raise ValueError("the traffic generator produced no requests")

        if faults is not None and fault_preset is not None:
            raise ValueError("pass faults= or fault_preset=, not both")
        fault_plan = None
        if faults is not None:
            fault_plan = faults if isinstance(faults, FaultPlan) else FaultPlan.load(faults)
        elif fault_preset is not None:
            horizon = max(request.arrival_time for request in generated)
            fault_plan = build_fault_preset(
                fault_preset, horizon=horizon if horizon > 0 else 1.0, seed=seed
            )

        if isinstance(retry_policy, str):
            retry = parse_retry_policy(retry_policy, seed=seed)
        elif retry_policy is None:
            retry = RetryPolicy(seed=seed)
        else:
            retry = retry_policy
        policy = None
        if (
            fault_plan is not None
            or retry_policy is not None
            or deadline is not None
            or admission_limit is not None
            or warm_spares
        ):
            policy = ResiliencePolicy(
                retry=retry,
                deadline_s=deadline,
                admission_limit=admission_limit,
                warm_spares=warm_spares,
                failover_delay_s=failover_delay,
            )
        injector = FaultInjector(fault_plan, policy) if fault_plan is not None else None

        cluster = cluster or ClusterSpec(gpus=4)
        # Serving needs a concrete interconnect: a paper-default spec lands on
        # the historical `repro serve` default (a800-nvlink x 4).
        topology = cluster.resolve()
        if topology is None:
            topology = known_topologies()["a800-nvlink"].with_n_gpus(4)

        settings = OverlapSettings(seed=seed)
        config = ServeConfig(
            model=SERVE_MODELS[scenario["workload"]],
            device=cluster.device_spec,
            topology=topology,
            layers=scenario["layers"],
            max_batch_tokens=scenario["max_batch_tokens"],
            max_batch_size=scenario["max_batch_size"],
            settings=settings,
        )
        warm = GemmShapeCache.load(warm_cache, missing_ok=True) if warm_cache else None
        cache = PlanCache(settings, capacity=plan_cache, warm_start=warm)
        slo = SLO(ttft_s=slo_ttft, tpot_s=slo_tpot)

        overlap = ServingSimulator(
            config, plan_cache=cache, mode="overlap", faults=injector, resilience=policy
        ).run(generated)
        baseline_result = None
        if baseline:
            # The baseline arm rides the same fault timeline so the overlap
            # comparison stays like-for-like.
            baseline_result = ServingSimulator(
                config, mode="non-overlap", faults=injector, resilience=policy
            ).run(generated)
        fault_free_result = None
        if injector is not None:
            fault_free_result = ServingSimulator(
                config,
                plan_cache=PlanCache(settings, capacity=plan_cache, warm_start=warm),
                mode="overlap",
            ).run(generated)
        if warm_cache and warm is not None:
            warm.save(warm_cache)

        return ServeReport(
            config=config,
            slo=slo,
            overlap=overlap,
            baseline=baseline_result,
            traffic=traffic,
            num_requests=len(generated),
            fault_free=fault_free_result,
            meta={
                "workload": scenario["workload"],
                "cluster": cluster.to_dict(),
                "layers": scenario["layers"],
                "max_batch_tokens": scenario["max_batch_tokens"],
                "max_batch_size": scenario["max_batch_size"],
                "plan_cache": plan_cache,
                "traffic": traffic,
                "requests": len(generated),
                "slo": {"ttft_s": slo.ttft_s, "tpot_s": slo.tpot_s},
                "baseline": bool(baseline),
                "faults": fault_plan.to_dict() if fault_plan is not None else None,
                "resilience": policy.to_dict() if policy is not None else None,
                "seed": seed,
                "smoke": smoke,
            },
        )

    return _profiled("repro serve", profile, build)


def sweep(
    presets: Sequence[str] | None = None,
    *,
    config: str | None = None,
    out: str | Path = "sweep_results.jsonl",
    workers: int = 1,
    resume: bool = False,
    cache: str | None = None,
    plan_store: str | None = None,
    baselines: bool = False,
    group_by: Sequence[str] = DEFAULT_GROUP_KEYS,
    heartbeat_s: float = 0.0,
    profile: bool = False,
) -> SweepReport:
    """Fan a scenario matrix out into a JSONL store (the ``repro sweep`` subcommand).

    Exactly one of ``presets`` (named matrices) or ``config`` (path of a
    ScenarioMatrix JSON) must be given.  Raises :class:`ValueError` /
    :class:`OSError` on bad presets, group keys or config files -- the CLI
    maps those onto exit code 2.  ``heartbeat_s`` emits periodic progress
    lines (done/total, retries, quarantines, ETA) while jobs run;
    ``profile=True`` attaches an observability snapshot.
    ``plan_store`` names a priced-cell store file: sweep points whose content
    matches a stored cell replay the priced results instead of re-simulating
    (incremental re-simulation), and freshly priced cells are written back.
    """

    def build() -> SweepReport:
        from repro.core.tuner import GemmShapeCache
        from repro.sweep import (
            ResultStore,
            Scenario,
            ScenarioMatrix,
            SweepRunner,
            matrix_from_preset,
        )

        if bool(presets) == bool(config):
            raise ValueError("exactly one of presets= or config= must be given")
        if config:
            matrices = [read_json(config, ScenarioMatrix.from_dict)]
        else:
            try:
                matrices = [matrix_from_preset(name) for name in presets]
            except KeyError as error:
                raise ValueError(error.args[0]) from error

        group_keys = tuple(group_by)
        scenario_fields = set(Scenario.__dataclass_fields__)
        unknown_keys = [key for key in group_keys if key not in scenario_fields]
        if unknown_keys:
            raise ValueError(
                f"unknown group-by fields {unknown_keys}; known: {sorted(scenario_fields)}"
            )

        warm = GemmShapeCache.load(cache, missing_ok=True) if cache else None
        store = ResultStore(out)
        runner = SweepRunner(
            store,
            workers=workers,
            resume=resume,
            cache=warm,
            cache_path=cache,
            baselines=baselines,
            plan_store_path=plan_store,
            heartbeat_s=heartbeat_s,
        )
        summaries = [(matrix.name, runner.run(matrix)) for matrix in matrices]
        return SweepReport(
            summaries=summaries,
            group_keys=group_keys,
            meta={
                "matrices": [name for name, _ in summaries],
                "out": str(store.path),
                "completed_jobs": len(store.completed_ids()),
                "workers": workers,
                "resume": resume,
                "baselines": baselines,
                "cache": cache,
                "cache_entries": len(runner.cache) if cache else None,
                "plan_store": plan_store,
                "priced_cells": len(runner.plan_store) if plan_store else None,
                "priced_cell_stats": runner.plan_store.stats() if plan_store else None,
                # Replays counted from the records: worker-pool lookups hit the
                # workers' snapshots, not the parent store's counters.
                "priced_hits": (
                    sum(summary.priced_hits for _, summary in summaries)
                    if plan_store else None
                ),
                "group_by": list(group_keys),
            },
        )

    return _profiled("repro sweep", profile, build)


def plan(
    workload: str = "llama3-training",
    *,
    cluster: ClusterSpec | None = None,
    tokens: int | None = None,
    layers: int | None = None,
    tp_degrees: Sequence[int] | None = None,
    microbatch_counts: Sequence[int] | None = None,
    schedules: Sequence[str] | None = None,
    methods: Sequence[str] | None = None,
    max_configs: int | None = None,
    prune: bool = True,
    deadline: float | None = None,
    seed: int = 0,
    smoke: bool = False,
    profile: bool = False,
):
    """Joint auto-parallelism search (the ``repro plan`` subcommand).

    Searches TP degree x pipeline stages x microbatch count x schedule x
    overlap method over ``cluster`` (default: one 8-GPU A800 server) and
    returns a :class:`~repro.plan.report.PlanSearchReport` whose ``winner``
    replays bit-identically through ``repro pp`` / ``repro e2e``.
    ``smoke=True`` fills arguments left at ``None`` with the CI-sized space
    in :data:`PLAN_SMOKE`.  ``deadline`` caps the wall-clock seconds the
    pricing loop may spend; a truncated search returns the best-so-far
    frontier with ``space["truncated"]`` set.  ``profile=True`` attaches an
    observability snapshot (phase spans, plan-store and prune counters).
    """

    def build():
        nonlocal layers, tp_degrees, microbatch_counts
        # The planner is the one subsystem this module imports on first use;
        # a profile shows that import as a phase of its own.
        with obs.span("import", module="repro.plan"):
            from repro.plan import PLAN_METHODS, search_plan
        from repro.workloads.e2e import workload_builders

        _check_names("workload", [workload], workload_builders())
        cluster_spec = cluster or ClusterSpec(gpus=8)
        if smoke:
            if layers is None:
                layers = PLAN_SMOKE["layers"]
            if tp_degrees is None:
                tp_degrees = PLAN_SMOKE["tp_degrees"]
            if microbatch_counts is None:
                microbatch_counts = PLAN_SMOKE["microbatch_counts"]
        report = search_plan(
            workload=workload,
            cluster=cluster_spec,
            tokens=tokens,
            layers=layers,
            tp_degrees=tuple(tp_degrees) if tp_degrees is not None else None,
            microbatch_counts=(
                tuple(microbatch_counts) if microbatch_counts is not None else None
            ),
            schedules=_schedules(schedules),
            methods=tuple(methods) if methods is not None else PLAN_METHODS,
            settings=OverlapSettings(seed=seed),
            max_configs=max_configs,
            prune=prune,
            deadline_s=deadline,
        )
        report.meta["smoke"] = smoke
        return report

    return _profiled("repro plan", profile, build)
