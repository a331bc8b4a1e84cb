"""The benchmark's four workloads: seeded query generators, execution and output checks.

A query is a plain JSON-able dict naming one ``repro.api`` call and its
arguments, so the generated list can be saved next to each run's results
and replayed.  Each workload draws its queries from a fixed list of strata
(for example model x placement x token band); the seed only picks the
values inside each stratum and the order.  Every seed therefore produces
the same mix of query costs, which keeps host-time medians comparable
across seeds while the queries themselves differ.

``count`` queries are ``cycles x len(strata)``: one query per stratum per
cycle, so the mix is the same whatever the run length.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

E2E_MODELS = ("llama2-training", "llama3-inference", "llama3-training", "mixtral-training", "step-video")
#: Placements of the e2e workload: single-server TP groups and a 2-node A800 cluster.
PLACEMENTS = {"tp2": {"gpus": 2}, "tp4": {"gpus": 4}, "tp8": {"gpus": 8}, "2node": {"nodes": 2}}
#: Input-token bands; a query draws a multiple of 256 inside its band.
TOKEN_BANDS = ((1024, 4096), (4096, 12288), (12288, 24576), (24576, 36864))

PP_MODELS = ("llama2-training", "llama3-training", "mixtral-training")
#: (stages, microbatches) grids of the pp queries.
PP_GRIDS = ((4, 64), (8, 32), (8, 48), (8, 64))

#: (model, requests, length distribution, rate req/s, faulted) of each serve
#: stratum: the model x requests x lengths x rate grid, with the middle of
#: its cost range held by three llama2-7b x 1024 strata so that the median
#: falls inside a cluster of similar queries, not between two strata.
SERVE_STRATA = (
    ("llama2-7b", 128, "chat", 24.0, False),
    ("llama2-7b", 256, "code", 24.0, False),
    ("llama3-70b", 256, "summarize", 32.0, False),
    ("llama2-7b", 512, "summarize", 24.0, False),
    ("llama3-70b", 512, "chat", 40.0, False),
    ("llama2-7b", 1024, "chat", 32.0, False),
    ("llama2-7b", 1024, "code", 40.0, False),
    ("llama2-7b", 1024, "summarize", 24.0, False),
    ("llama3-70b", 1024, "code", 40.0, False),
    ("llama2-7b", 2048, "code", 32.0, False),
    ("llama3-70b", 2048, "summarize", 40.0, False),
    ("llama2-7b", 512, "chat", 32.0, True),
    ("llama3-70b", 512, "code", 32.0, True),
)
FAULT_PRESETS = ("replica-crash", "double-crash", "straggler", "degraded-link", "drop-storm")

SWEEP_PLATFORMS = (
    ("a800", "a800-nvlink", 4),
    ("a800", "a800-nvlink", 8),
    ("rtx4090", "rtx4090-pcie", 4),
    ("h100", "a800-nvlink", 4),
)
#: M bands of a sweep matrix's shapes: one shape per band in every query.
SWEEP_M_BANDS = ((512, 2048), (2048, 4096), (4096, 6144), (6144, 8192))
#: One sweep cycle: the first query writes a priced-cell store that the last re-reads.
SWEEP_CYCLE = ("prime", "fresh", "baselines", "replay")
SWEEP_WORKERS = min(2, os.cpu_count() or 1)


def _multiple(rng: random.Random, lo: int, hi: int, step: int) -> int:
    """A multiple of ``step`` in ``[lo, hi)``."""
    return step * rng.randrange(-(-lo // step), -(-hi // step))


def _cycles(strata: int, count: int) -> int:
    if count % strata:
        raise ValueError(f"query count {count} is not a multiple of the {strata} strata")
    return count // strata


# -- generators -------------------------------------------------------------------


def _e2e_strata() -> list[tuple]:
    return [
        (model, placement, band)
        for model in E2E_MODELS
        for placement in PLACEMENTS
        for band in TOKEN_BANDS
        # Mixtral keeps EP=4, so its GPU count must divide by 4.
        if not (model == "mixtral-training" and placement == "tp2")
    ]


def generate_e2e(rng: random.Random, count: int) -> list[dict]:
    strata = _e2e_strata()
    seen: set[tuple] = set()
    queries = []
    for _ in range(_cycles(len(strata), count)):
        for model, placement, band in rng.sample(strata, len(strata)):
            while True:  # no query repeats within a run
                tokens = _multiple(rng, *band, 256)
                if (model, placement, tokens) not in seen:
                    seen.add((model, placement, tokens))
                    break
            queries.append({
                "call": "estimate",
                "kind": placement,
                "args": {"workloads": [model], "tokens": tokens, "cluster": PLACEMENTS[placement]},
            })
    return queries


def _pipeline_strata() -> list[tuple]:
    # One planner search per model and cycle: enough searches that the tail
    # sample (ten from the top) falls inside their cost cluster.
    pp = [("pp", model, grid) for model in PP_MODELS for grid in PP_GRIDS]
    return pp + [("plan", model, None) for model in PP_MODELS]


def generate_pipeline(rng: random.Random, count: int) -> list[dict]:
    strata = _pipeline_strata()
    queries = []
    for _ in range(_cycles(len(strata), count)):
        for call, model, grid in rng.sample(strata, len(strata)):
            gpus = rng.choice((4, 8))
            if call == "pp":
                stages, microbatches = grid
                args = {
                    "workloads": [model],
                    "stages": stages,
                    "microbatches": microbatches,
                    "layers": stages * rng.choice((1, 2)),
                    "tokens": microbatches * _multiple(rng, 256, 768, 128),
                    "cluster": {"gpus": gpus},
                    "record_trace": True,
                }
                kind = f"pp-s{stages}m{microbatches}"
            else:
                args = {
                    "workload": model,
                    "layers": 4,
                    "tokens": _multiple(rng, 12288, 20480, 1024),
                    "tp_degrees": [2, 4, 8],
                    "microbatch_counts": [2, 4, 8, 16],
                    "cluster": {"gpus": 8},
                }
                kind = "plan"
            queries.append({"call": call, "kind": kind, "args": args})
    return queries


def generate_serve(rng: random.Random, count: int) -> list[dict]:
    queries = []
    for _ in range(_cycles(len(SERVE_STRATA), count)):
        for model, requests, distribution, rate, faulted in rng.sample(SERVE_STRATA,
                                                                       len(SERVE_STRATA)):
            args = {
                "baseline": True,
                "workload": model,
                "requests": requests,
                "rate": rate,
                "distribution": distribution,
                "seed": rng.randrange(1 << 16),
            }
            if faulted:
                args["fault_preset"] = rng.choice(FAULT_PRESETS)
                args["retry_policy"] = f"retries={rng.choice((2, 3, 4))},backoff=0.05"
            queries.append({"call": "serve", "kind": "faulted" if faulted else "healthy",
                            "args": args})
    return queries


def _sweep_matrix(rng: random.Random, name: str) -> dict:
    shapes = [
        [_multiple(rng, *band, 512), _multiple(rng, 2048, 16384, 1024),
         _multiple(rng, 2048, 16384, 1024)]
        for band in SWEEP_M_BANDS
    ]
    return {
        "name": name,
        "workload": "bench",
        "shapes": shapes,
        "platforms": [list(p) for p in rng.sample(SWEEP_PLATFORMS, 2)],
        "collectives": ["allreduce", "reducescatter"],
    }


def generate_sweep(rng: random.Random, count: int) -> list[dict]:
    queries: list[dict] = []
    for _ in range(_cycles(len(SWEEP_CYCLE), count)):
        prime = None
        for kind in SWEEP_CYCLE:
            if kind == "replay":
                args = {"matrix": prime["args"]["matrix"], "store_of": prime["id"]}
            else:
                args = {"matrix": _sweep_matrix(rng, f"q{len(queries)}")}
                if kind == "baselines":
                    args["baselines"] = True
            query = {"id": len(queries), "call": "sweep", "kind": kind, "args": args}
            if kind == "prime":
                prime = query
            queries.append(query)
    return queries


# -- execution --------------------------------------------------------------------


def prepare(query: dict, workdir: Path) -> Callable[[], object]:
    """The timed callable of one query; files it reads are written here, untimed."""
    import repro.api as api
    from repro.cluster import ClusterSpec

    args = dict(query["args"])
    if "cluster" in args:
        args["cluster"] = ClusterSpec(**args["cluster"])
    call = query["call"]
    if call != "sweep":
        function = getattr(api, call)
        return lambda: function(**args)

    # Each sweep query gets a fresh directory; a replay re-reads the
    # priced-cell store its prime query wrote into the prime's directory.
    qdir = workdir / f"q{query['id']:05d}"
    qdir.mkdir(parents=True)
    config = qdir / "matrix.json"
    config.write_text(json.dumps(args["matrix"]), encoding="utf-8")
    kwargs = {"config": str(config), "out": str(qdir / "records.jsonl"),
              "workers": SWEEP_WORKERS, "baselines": bool(args.get("baselines"))}
    if query["kind"] == "prime":
        kwargs["plan_store"] = str(qdir / "cells.json")
    elif query["kind"] == "replay":
        kwargs["plan_store"] = str(workdir / f"q{args['store_of']:05d}" / "cells.json")
    return lambda: api.sweep(**kwargs)


# -- simulated payloads, speedups and output checks -------------------------------

#: Sweep meta keys that hold file paths of the run's temp directory.
_PATH_KEYS = ("out", "cache", "plan_store")


def canonical(query: dict, report) -> dict:
    """The simulated payload of a report: ``to_dict()`` minus observability and paths."""
    payload = _strip(report.to_dict())
    if query["call"] == "sweep":
        for key in _PATH_KEYS:
            payload["meta"].pop(key, None)
    return payload


def _strip(value):
    if isinstance(value, dict):
        return {key: _strip(item) for key, item in value.items() if key != "observability"}
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


#: Float rounding allowed between the two sequential pricing paths (a few ulps).
SEQUENTIAL_RTOL = 1e-12


@dataclass
class Verdict:
    """What the output checks found in one query's payload.

    ``errors`` are broken promises of the program and fail the query.  The
    ordering bound <= FlashOverlap <= sequential is checked on every priced
    operator, plan and record; where the model does not promise one side of
    it, a break is counted (``below_bound``, ``slower``) instead of failed.
    """

    speedups: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    priced: int = 0
    below_bound: int = 0
    slower: int = 0
    #: FlashOverlap-arm bubble ratios of every pp schedule (simulated).
    bubbles: list[float] = field(default_factory=list)

    @property
    def speedup(self) -> float | None:
        """The query's simulated speedup: the geomean of its parts."""
        return geomean(self.speedups) if self.speedups else None

    def ordered(self, bound: float | None, overlap: float, sequential: float, what: str,
                promised: bool = True) -> None:
        """Check bound <= overlap <= sequential; only a promised overlap <= sequential fails.

        The model's perfect-overlap bound is an estimate that a simulated
        schedule can beat, so ``overlap < bound`` is always only counted.  A
        sequential fallback is priced by a different code path than the
        sequential baseline, so the promise holds to ``SEQUENTIAL_RTOL``.
        """
        self.priced += 1
        if bound is not None and overlap < bound:
            self.below_bound += 1
        if overlap > sequential:
            self.slower += 1
            if promised and overlap > sequential * (1.0 + SEQUENTIAL_RTOL):
                self.errors.append(f"{what}: FlashOverlap {overlap!r} > sequential {sequential!r}")


def _check_e2e(query: dict, payload: dict, verdict: Verdict) -> None:
    estimates = payload["workloads"]
    if len(estimates) != len(query["args"]["workloads"]):
        verdict.errors.append(
            f"expected {len(query['args']['workloads'])} estimates, got {len(estimates)}"
        )
    for name, estimate in estimates.items():
        _check_estimate(name, estimate, verdict)
        verdict.speedups.append(estimate["non_overlap_total"] / estimate["overlap_total"])


def _check_estimate(name: str, estimate: dict, verdict: Verdict) -> None:
    # Plan-store-priced operators are validated against the sequential
    # execution, so FlashOverlap is promised never to be slower.
    verdict.ordered(estimate["theoretical_total"], estimate["overlap_total"],
                    estimate["non_overlap_total"], name)
    for op in estimate["operators"]:
        if op["is_overlap_target"]:
            verdict.ordered(op["theoretical_latency"], op["overlap_latency"],
                            op["non_overlap_latency"], f"{name}/{op['name']}")


def _check_pp(query: dict, payload: dict, verdict: Verdict) -> None:
    for name, estimate in payload["workloads"].items():
        schedules = estimate["schedules"]
        if list(schedules) != ["gpipe", "1f1b", "zero-bubble"]:
            verdict.errors.append(f"{name}: schedules {list(schedules)}")
            continue
        for schedule, result in schedules.items():
            methods = {method: arm["step_latency"] for method, arm in result["methods"].items()}
            # Faster cells can lengthen a list-scheduled step (zero-bubble
            # does this), so step-level ordering is counted, not promised.
            verdict.ordered(methods["theoretical"], methods["overlap"], methods["non-overlap"],
                            f"{name}/{schedule}", promised=False)
            verdict.speedups.append(methods["non-overlap"] / methods["overlap"])
        bubbles = [schedules[s]["methods"]["overlap"]["bubble_ratio"] for s in schedules]
        verdict.bubbles += bubbles
        if not bubbles[0] >= bubbles[1] >= bubbles[2]:
            verdict.errors.append(f"{name}: bubble ratios gpipe >= 1f1b >= zero-bubble fails: {bubbles}")
        if "e2e" in estimate:
            _check_estimate(f"{name}/microbatch", estimate["e2e"], verdict)


def _check_plan(query: dict, payload: dict, verdict: Verdict) -> None:
    arms: dict[tuple, dict[str, float]] = {}
    for point in payload["points"]:
        key = (point["tp"], point["stages"], point["microbatches"], tuple(point["partition"]),
               point["schedule"])
        arms.setdefault(key, {})[point["method"]] = point["step_latency"]
    for key, methods in arms.items():
        if {"overlap", "non-overlap"} <= set(methods):
            verdict.ordered(None, methods["overlap"], methods["non-overlap"], f"plan point {key}",
                            promised=False)
            verdict.speedups.append(methods["non-overlap"] / methods["overlap"])
    if payload["winner"] is None:
        verdict.errors.append("plan search found no winner")


def _check_serve(query: dict, payload: dict, verdict: Verdict) -> None:
    offered = payload["meta"]["requests"]
    for arm in ("overlap", "non-overlap"):
        result = payload.get(arm)
        if result is None:
            verdict.errors.append(f"missing {arm} arm")
            continue
        completed = result["metrics"]["requests_completed"]
        failed = len(result.get("failures", []))
        if completed + failed != offered:
            verdict.errors.append(
                f"{arm}: {completed} completed + {failed} failed != {offered} offered"
            )
        if not completed:
            verdict.errors.append(f"{arm}: no request completed")
    if not verdict.errors:
        overlap = payload["overlap"]["metrics"]["e2e_latency"]["mean"]
        baseline = payload["non-overlap"]["metrics"]["e2e_latency"]["mean"]
        verdict.speedups.append(baseline / overlap)


def _check_sweep(query: dict, payload: dict, verdict: Verdict) -> None:
    from repro.sweep import ScenarioMatrix

    jobs = [s.job_id for s in ScenarioMatrix.from_dict(query["args"]["matrix"]).expand()]
    records = payload["records"]
    if sorted(r["job_id"] for r in records) != sorted(jobs):
        verdict.errors.append(f"{len(records)} records for {len(jobs)} jobs")
    for record in records:
        if record.get("status") != "ok":
            verdict.errors.append(f"{record['job_id']}: status {record.get('status')}")
            continue
        # A sweep prices the tuner's own decision without validating it
        # against the sequential run, so a slower FlashOverlap is counted only.
        verdict.ordered(record["theoretical_latency"], record["overlap_latency"],
                        record["non_overlap_latency"], record["job_id"], promised=False)
        verdict.speedups.append(record["non_overlap_latency"] / record["overlap_latency"])


_CHECKS = {
    "estimate": _check_e2e,
    "pp": _check_pp,
    "plan": _check_plan,
    "serve": _check_serve,
    "sweep": _check_sweep,
}


def check(query: dict, payload: dict) -> Verdict:
    """Run the output checks of one query's simulated payload."""
    verdict = Verdict()
    _CHECKS[query["call"]](query, payload, verdict)
    if verdict.speedup is None and not verdict.errors:
        verdict.errors.append("no simulated speedup in the report")
    return verdict


# -- the workload table -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[random.Random, int], list[dict]]
    strata: int
    #: Seconds one cycle (one query per stratum) takes on the reference host.
    cycle_s: float
    #: The representative CLI command (``repro <args>``), run in a fresh interpreter.
    cli: tuple[str, ...]
    #: Modules the workload's CLI command and queries import (what setup_s times).
    modules: tuple[str, ...]

    def count(self, seconds: float) -> int:
        """Queries in a run of ``seconds`` on the reference host: the whole cycles that fit."""
        return max(1, int(seconds / self.cycle_s)) * self.strata

    def queries(self, seed: int, count: int) -> list[dict]:
        queries = self.generate(random.Random(f"{self.name}:{seed}"), count)
        for index, query in enumerate(queries):
            query["id"] = index
        return queries


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="e2e-paper",
            why="cold api.estimate over the five paper models x tokens x placements: "
                "plan-store misses drive the tuner and executor (the paper's core)",
            generate=generate_e2e,
            strata=len(_e2e_strata()),
            cycle_s=3.9,
            cli=("e2e",),
            modules=("repro.cli", "repro.api", "repro.e2e.report"),
        ),
        Workload(
            name="pipeline",
            why="deep api.pp stage x microbatch grids with traces plus api.plan searches: "
                "pp schedule generation and replay lead and core is a minority",
            generate=generate_pipeline,
            strata=len(_pipeline_strata()),
            cycle_s=2.75,
            cli=("plan", "--smoke"),
            modules=("repro.cli", "repro.api", "repro.pp.report", "repro.plan"),
        ),
        Workload(
            name="serve-traffic",
            why="api.serve with baseline over rate x requests x lengths x model, a share "
                "faulted: the serving loop dominates and the plan store mostly hits",
            generate=generate_serve,
            strata=len(SERVE_STRATA),
            cycle_s=3.9,
            cli=("serve", "--baseline"),
            modules=("repro.cli", "repro.api", "repro.serve.simulator", "repro.faults"),
        ),
        Workload(
            name="sweep-grid",
            why="api.sweep of seeded matrices on 2 worker processes with baselines and "
                "priced-cell replays: process fan-out, store I/O and core with no reuse",
            generate=generate_sweep,
            strata=len(SWEEP_CYCLE),
            cycle_s=0.53,
            cli=("sweep", "--preset", "smoke", "--workers", str(SWEEP_WORKERS), "--out", "r.jsonl"),
            modules=("repro.cli", "repro.api", "repro.sweep.runner"),
        ),
    )
}
