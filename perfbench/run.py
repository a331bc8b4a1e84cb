"""Run one benchmark workload against the ``repro`` package of this checkout.

    python3 perfbench/run.py --workload e2e-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A run generates the workload's seeded query list, runs it back to back from
this one process (a closed loop with one client and no threads), checks every
report, and spawns the workload's CLI command in fresh interpreters.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the first half of the queries untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full results, the
query list and the spans go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SPAWNS = 5
CLI_SPAWNS = 7
#: Spawns are cut off after this long; a hung command fails the run.
SPAWN_TIMEOUT_S = 60
#: What ``calibrate()`` takes on the reference host when it runs at full speed.
CALIBRATION_REFERENCE_NS = 3_300_000

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Verdict, canonical, check, geomean, prepare  # noqa: E402

#: ``repro`` subpackages that get their own ``import.<name>.self_ms`` row;
#: top-level modules fold into ``import.repro``, everything else into
#: ``import.external``.
SUBPACKAGES = ("analysis", "cli", "comm", "core", "e2e", "faults", "gpu", "obs", "plan",
               "plans", "pp", "serve", "sim", "sweep", "tensor", "workloads")

#: Layer rows of the traced run's wall-time table (the query process's layers).
LAYERS = ("api", "core.tuner", "core.executor", "core.executor.payload", "core.signaling",
          "gpu.swizzle", "core.baselines", "plans", "e2e.estimate", "pp.schedule", "pp.price",
          "sim.replay", "sim.trace", "plan.search", "serve.run", "serve.scheduler", "faults",
          "sweep.run", "sweep.wait", "sweep.store")


# -- host speed -------------------------------------------------------------------


def calibrate() -> int:
    """Nanoseconds of a fixed mix of interpreter loop and small NumPy calls.

    Shared hosts run whole stretches of seconds up to a third slower.  Every
    host-time sample is taken next to a calibration and scaled by
    ``CALIBRATION_REFERENCE_NS / calibration``: the sample's time on the
    reference host at full speed.  A query is scaled by the calibrations
    around it.  A spawned interpreter may run on another CPU than the
    calibration, so spawn medians are scaled by the run's median calibration.
    """
    import numpy as np

    start = time.perf_counter_ns()
    total = 0
    for index in range(40000):
        total += index * index
    values = np.arange(4096.0)
    for _ in range(60):
        values = np.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter_ns() - start


def speed_factor(before_ns: int, after_ns: int) -> float:
    return CALIBRATION_REFERENCE_NS / ((before_ns + after_ns) / 2)


# -- spawned interpreters ---------------------------------------------------------


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Spawned:
    """One command run in a fresh interpreter, between two calibrations."""

    wall_s: float
    calibrations_ns: tuple[int, int]
    rc: int | None  # None: killed after SPAWN_TIMEOUT_S
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.rc == 0 and bool(self.stdout.strip())

    def summary(self) -> dict:
        return {"wall_s": self.wall_s, "calibrations_ns": self.calibrations_ns, "rc": self.rc,
                "stdout_bytes": len(self.stdout), "ok": self.ok}


def spawn(args: list[str], cwd: Path) -> Spawned:
    before = calibrate()
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *args], cwd=cwd, env=_env(), capture_output=True,
                              text=True, timeout=SPAWN_TIMEOUT_S)
        rc, stdout, stderr = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        rc, stdout, stderr = None, "", f"killed after {SPAWN_TIMEOUT_S} s"
    seconds = time.perf_counter() - start
    return Spawned(seconds, (before, calibrate()), rc, stdout, stderr)


def _import_code(workload) -> str:
    return f"import {', '.join(workload.modules)}; print('ready')"


class Spawns:
    """The set-up and CLI spawns of a run, spread over its query loop.

    Host speed drifts over seconds, so the spawns run between queries at
    even intervals instead of back to back.  The first spawn of a fresh
    checkout also compiles bytecode; the median absorbs that one slow sample.  Set-up spawns time a fresh
    interpreter importing what the workload's command needs; CLI spawns run
    the representative command, each in a fresh working directory.
    """

    def __init__(self, workload, run_dir: Path, queries: int) -> None:
        self.workload = workload
        self.run_dir = run_dir
        self.runs: dict[str, list[dict]] = {"setup": [], "cli": []}
        plan = [kind for index in range(max(SETUP_SPAWNS, CLI_SPAWNS))
                for kind, count in (("setup", SETUP_SPAWNS), ("cli", CLI_SPAWNS))
                if index < count]
        step = queries / len(plan)
        self.after = {min(queries - 1, int(step * (i + 0.5))): kind for i, kind in enumerate(plan)}
        self.pending: list[str] = []
        if len(self.after) < len(plan):  # fewer queries than spawns: all at the end
            self.after, self.pending = {}, plan

    @property
    def ok(self) -> bool:
        return all(run["ok"] for runs in self.runs.values() for run in runs)

    def between(self, index: int) -> None:
        if index in self.after:
            self._run(self.after[index])

    def finish(self) -> None:
        for kind in self.pending:
            self._run(kind)

    def _run(self, kind: str) -> None:
        if kind == "setup":
            spawned = spawn(["-c", _import_code(self.workload)], self.run_dir)
        else:
            cwd = Path(tempfile.mkdtemp(prefix="cli", dir=self.run_dir))
            spawned = spawn(["-m", "repro.cli", *self.workload.cli], cwd)
        if not spawned.ok:
            print(f"{kind} spawn failed (rc {spawned.rc}): {spawned.stderr.strip()[-500:]}",
                  file=sys.stderr)
        self.runs[kind].append(spawned.summary())


def import_rows(workload, run_dir: Path) -> dict[str, float]:
    """Self import time per ``repro`` subpackage (ms) from one ``-X importtime`` spawn."""
    spawned = spawn(["-X", "importtime", "-c", _import_code(workload)], run_dir)
    rows = dict.fromkeys([*SUBPACKAGES, "repro", "external"], 0.0)
    for line in spawned.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        parts = module.split(".")
        if parts[0] != "repro":
            row = "external"
        else:
            row = parts[1] if len(parts) > 1 and parts[1] in SUBPACKAGES else "repro"
        rows[row] += int(self_us) / 1e3
    return rows


# -- the query loop ---------------------------------------------------------------


@dataclass
class LoopResult:
    latencies_s: list[float] = field(default_factory=list)
    #: Each latency scaled to the reference host by the calibrations around it.
    scaled_s: list[float] = field(default_factory=list)
    calibrations_ns: list[int] = field(default_factory=list)
    wall_ns: int = 0
    failed: int = 0
    speedups: list[float] = field(default_factory=list)
    priced: int = 0
    below_bound: int = 0
    slower: int = 0
    bubbles: list[float] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    digest: str = ""
    obs_counters: dict[str, float] = field(default_factory=dict)
    #: Payloads holding NumPy scalars, which the CLI's ``--json`` cannot write.
    numpy_payloads: int = 0

    def add(self, query: dict, verdict: Verdict) -> None:
        if verdict.speedup is not None:
            self.speedups.append(verdict.speedup)
        self.priced += verdict.priced
        self.below_bound += verdict.below_bound
        self.slower += verdict.slower
        self.bubbles += verdict.bubbles
        if verdict.errors:
            self.failed += 1
            self.errors.append({"query": query["id"], "errors": verdict.errors[:5]})


def run_queries(queries: list[dict], work_dir: Path, tracer=None,
                between: Callable[[int], None] | None = None) -> LoopResult:
    """Run the queries back to back; checks, file preparation and ``between`` are not timed.

    With a ``tracer`` each query is a root ``api`` span under an
    ``obs.observe()`` session whose counters are summed by name.
    """
    from repro import obs

    result = LoopResult()
    digest = hashlib.sha256()
    excluded_ns = 0
    gc.collect()
    calibration = calibrate()
    result.calibrations_ns.append(calibration)
    loop_start = time.perf_counter_ns()
    for query in queries:
        prep_start = time.perf_counter_ns()
        call = prepare(query, work_dir)
        if tracer is not None:
            tracer.query = query["id"]
            call = tracer.wrap(call, "api")
        start = time.perf_counter_ns()
        excluded_ns += start - prep_start
        report = None
        try:
            if tracer is None:
                report = call()
            else:
                with obs.observe() as session:
                    report = call()
                _add_counters(result.obs_counters, session.metrics.snapshot()["counters"])
        except Exception as error:  # noqa: BLE001 - a raising query is a failed query
            verdict = Verdict(errors=[f"raised {type(error).__name__}: {error}"])
            digest.update(f"error {type(error).__name__}\n".encode())
        end = time.perf_counter_ns()
        after = calibrate()
        result.calibrations_ns.append(after)
        result.latencies_s.append((end - start) / 1e9)
        result.scaled_s.append((end - start) / 1e9 * speed_factor(calibration, after))
        calibration = after
        if report is not None:
            payload = canonical(query, report)
            text, numpy_scalars = _canonical_json(payload)
            digest.update(text.encode())
            digest.update(b"\n")
            result.numpy_payloads += numpy_scalars > 0
            verdict = check(query, payload)
        result.add(query, verdict)
        if between is not None:
            between(query["id"])
        excluded_ns += time.perf_counter_ns() - end
    result.wall_ns = time.perf_counter_ns() - loop_start - excluded_ns
    result.digest = digest.hexdigest()
    return result


def _canonical_json(payload: dict) -> tuple[str, int]:
    """Canonical JSON of a payload, NumPy scalars as Python numbers; and their count."""
    found = 0

    def plain(value):
        nonlocal found
        if not hasattr(value, "item"):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        found += 1
        return value.item()

    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=plain), found


def _add_counters(totals: dict[str, float], counters: dict[str, float]) -> None:
    """Sum ``repro.obs`` counter series by name across their labels."""
    for key, value in counters.items():
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value


def clear_program_caches() -> None:
    """Drop the package's process-level memo caches so both traced passes start cold."""
    from repro.core import predictor

    clear = getattr(predictor, "clear_profile_caches", None)
    if clear is not None:
        clear()


# -- metrics ----------------------------------------------------------------------


def tail(latencies_s: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(loop: LoopResult, setup: list[dict], cli: list[dict]) -> dict[str, dict]:
    """Every end-to-end metric as ``{value, unit, samples, time, raw}``.

    Host times are scaled to the reference host; ``raw`` keeps the wall-clock value.
    """
    n = len(loop.latencies_s)
    calibrations = loop.calibrations_ns + [ns for run in setup + cli for ns in run["calibrations_ns"]]
    spawn_scale = CALIBRATION_REFERENCE_NS / statistics.median(calibrations)
    setup_s = statistics.median(run["wall_s"] for run in setup)
    cli_s = statistics.median(run["wall_s"] for run in cli)
    percentile, tail_s = tail(loop.scaled_s)
    _, raw_tail_s = tail(loop.latencies_s)
    # The loop's wall time scaled by the latency-weighted speed factor.
    scale = sum(loop.scaled_s) / sum(loop.latencies_s)
    wall_s = loop.wall_ns / 1e9
    return {
        "setup_s": _metric(setup_s * spawn_scale, "s", len(setup), "host", raw=setup_s),
        "cli_wall_s": _metric(cli_s * spawn_scale, "s", len(cli), "host", raw=cli_s),
        "query_p50_ms": _metric(statistics.median(loop.scaled_s) * 1e3, "ms", n, "host",
                                raw=statistics.median(loop.latencies_s) * 1e3),
        "query_tail_ms": _metric(tail_s * 1e3, "ms", n, "host", raw=raw_tail_s * 1e3,
                                 percentile=round(percentile, 2)),
        "queries_per_s": _metric(n / (wall_s * scale), "1/s", n, "host", raw=n / wall_s),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                               1, "host"),
        "sim_speedup_geomean": _metric(geomean(loop.speedups) if loop.speedups else 0.0, "x",
                                       len(loop.speedups), "simulated"),
    }


def _metric(value: float, unit: str, samples: int, clock: str, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, "time": clock, **extra}


def per_layer(tracer, loop: LoopResult, untraced: LoopResult,
              imports: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric of the traced pass ``loop`` as ``{value, unit, samples, time}``.

    The tracing overhead compares the two passes' query times scaled to the
    reference host, so host speed drift between the passes cancels.
    """
    counts = tracer.counts
    obs_counts = loop.obs_counters

    def host(value, unit):
        return _metric(value, unit, 1, "host")

    def count(value, unit="count"):
        return _metric(value, unit, 1, "count")

    def sim(value, unit="ratio"):
        return _metric(value, unit, 1, "simulated")

    def self_ms(layer):
        return host(tracer.layer_ns(layer) / 1e6, "ms")

    tuner_calls = tracer.layer_calls("core.tuner")
    iterations = obs_counts.get("serve.iterations", 0)
    metrics = {f"import.{row}.self_ms": host(value, "ms") for row, value in imports.items()}
    metrics.update({
        "api.self_ms": self_ms("api"),
        "untraced.self_ms": host((loop.wall_ns - tracer.root_ns()) / 1e6, "ms"),
        "trace.wall_s": host(loop.wall_ns / 1e9, "s"),
        "trace.untraced_wall_s": host(untraced.wall_ns / 1e9, "s"),
        "trace.overhead_pct": host(
            100.0 * (sum(loop.scaled_s) / sum(untraced.scaled_s) - 1.0), "%"),
        "core.tuner.calls": count(tuner_calls),
        "core.tuner.self_ms": self_ms("core.tuner"),
        "core.tuner.candidates": count(counts["tuner.candidates"]),
        "core.tuner.fallback_ratio": sim(_ratio(counts["tuner.fallbacks"], tuner_calls)),
        "core.tuner.pred_error_pct": sim(
            100.0 * _ratio(counts["tuner.pred_error_sum"], counts["tuner.pred_error_n"]), "%"),
        "core.executor.calls": count(tracer.layer_calls("core.executor")),
        "core.executor.self_ms": self_ms("core.executor"),
        "core.executor.ns_per_tile": host(
            _ratio(tracer.layer_ns("core.executor"), counts["executor.tiles"]), "ns"),
        "core.executor.payload_ms": self_ms("core.executor.payload"),
        "core.signaling.self_ms": self_ms("core.signaling"),
        "gpu.swizzle.self_ms": self_ms("gpu.swizzle"),
        "core.baselines.self_ms": self_ms("core.baselines"),
        "core.overlap_efficiency": sim(
            _ratio(counts["core.efficiency_sum"], counts["core.efficiency_n"])),
        "core.below_bound_ratio": sim(_ratio(loop.below_bound, loop.priced)),
        "core.slower_ratio": sim(_ratio(loop.slower, loop.priced)),
        "plans.lookups": count(counts["plans.lookups"]),
        "plans.hit_ratio": count(_ratio(counts["plans.hits"], counts["plans.lookups"]), "ratio"),
        "plans.miss_ms": host(counts["plans.miss_ns"] / 1e6, "ms"),
        "plans.priced_cell_hit_ratio": count(
            _ratio(counts["priced_cells.hits"], counts["priced_cells.lookups"]), "ratio"),
        "e2e.estimate.self_ms": self_ms("e2e.estimate"),
        "sim.engine.events": count(counts["sim.engine.events"]),
        "pp.schedule.self_ms": self_ms("pp.schedule"),
        "pp.schedule.cells": count(counts["pp.schedule.cells"]),
        "pp.price.self_ms": self_ms("pp.price"),
        "pp.bubble_ratio": sim(statistics.fmean(loop.bubbles) if loop.bubbles else 0.0),
        "sim.replay.calls": count(tracer.layer_calls("sim.replay")),
        "sim.replay.self_ms": self_ms("sim.replay"),
        "sim.replay.us_per_task": host(
            _ratio(tracer.layer_ns("sim.replay") / 1e3, counts["sim.replay.tasks"]), "us"),
        "sim.replay.trace_share": host(_ratio(
            tracer.layer_ns("sim.trace"),
            tracer.layer_ns("sim.replay") + tracer.layer_ns("sim.trace")), "ratio"),
        "plan.search.self_ms": self_ms("plan.search"),
        "plan.configs_priced": count(counts["plan.configs_priced"]),
        "plan.prune_ratio": count(
            _ratio(counts["plan.batches_pruned"], counts["plan.batches"]), "ratio"),
        "serve.run.self_ms": self_ms("serve.run"),
        "serve.scheduler.self_ms": self_ms("serve.scheduler"),
        "serve.iterations": count(iterations),
        "serve.us_per_iteration": host(_ratio(counts["serve.run_ns"] / 1e3, iterations), "us"),
        "faults.self_ms": self_ms("faults"),
        "sweep.run.self_ms": self_ms("sweep.run"),
        "sweep.wait_ms": self_ms("sweep.wait"),
        "sweep.store.write_ms": self_ms("sweep.store"),
        "sweep.worker.self_ms": self_ms("sweep.worker"),
        "sweep.retried": count(obs_counts.get("sweep.retried", 0)),
        "sweep.quarantined": count(obs_counts.get("sweep.quarantined", 0)),
    })
    return metrics


def layer_table(tracer, traced_ns: int) -> tuple[list[tuple[str, float]], float]:
    """Self-time rows (ms) of the query process plus ``(untraced)``; and their sum."""
    rows = [(layer, tracer.self_ns.get(layer, 0) / 1e6) for layer in LAYERS]
    rows.append(("(untraced)", (traced_ns - tracer.root_ns()) / 1e6))
    return rows, sum(value for _, value in rows)


# -- output -----------------------------------------------------------------------


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    print(f"  {'metric':32s} {'value':>14s}  {'unit':6s} {'samples':>7s}  {'time':9s}  raw wall")
    for name, metric in metrics.items():
        raw = f"{metric['raw']:14.6g}" if "raw" in metric else ""
        note = f"  (p{metric['percentile']})" if "percentile" in metric else ""
        print(f"  {name:32s} {metric['value']:14.6g}  {metric['unit']:6s} "
              f"{metric['samples']:7d}  {metric['time']:9s}{raw}{note}")


def print_layers(rows: list[tuple[str, float]], total: float, wall_ms: float) -> None:
    print(f"  query-process self time by layer (traced wall {wall_ms:.1f} ms)")
    for name, value in sorted(rows, key=lambda row: -row[1]):
        print(f"    {name:24s} {value:12.3f} ms  {100.0 * value / wall_ms:6.2f}%")
    print(f"    {'sum':24s} {total:12.3f} ms")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{workload.name}-seed{args.seed}-trace{args.trace}-", dir=OUT))
    work_dir = run_dir / "work"
    work_dir.mkdir()
    count = workload.count(args.seconds / 2 if args.trace else args.seconds)
    queries = workload.queries(args.seed, count)
    threads_before = threading.active_count()

    results: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "queries": queries}
    notes: list[str] = []
    correct = True
    if not args.trace:
        spawns = Spawns(workload, run_dir, len(queries))
        loop = run_queries(queries, work_dir, between=spawns.between)
        spawns.finish()
        metrics = end_to_end(loop, spawns.runs["setup"], spawns.runs["cli"])
        results.update(spawns=spawns.runs)
        correct &= spawns.ok
        print_metrics(f"{workload.name}: seed {args.seed}, {count} queries, end-to-end", metrics)
    else:
        from spans import Tracer

        imports = import_rows(workload, run_dir)
        # A first pass over a query list runs slower (lazy imports, heap
        # growth), so a discarded pass comes first and the two compared
        # passes see the same process state.
        run_queries(queries, work_dir / "warm-up")
        clear_program_caches()
        untraced = run_queries(queries, work_dir / "untraced")
        clear_program_caches()
        tracer = Tracer()
        tracer.install()
        try:
            loop = run_queries(queries, work_dir / "traced", tracer)
        finally:
            tracer.uninstall()
        if tracer.missing:
            notes.append(f"entry points no longer present: {tracer.missing}")
        metrics = per_layer(tracer, loop, untraced, imports)
        rows, total = layer_table(tracer, loop.wall_ns)
        # The untraced check time is outside the timed wall, so the table is
        # checked against the traced loop's wall with its check time removed.
        adds_up = abs(total - loop.wall_ns / 1e6) <= 1e-6 * max(total, 1.0)
        correct &= adds_up
        correct &= untraced.digest == loop.digest
        results.update(layers=rows, missing=tracer.missing, untraced_errors=untraced.errors)
        with gzip.open(run_dir / "spans.jsonl.gz", "wt", encoding="utf-8") as stream:
            for span in tracer.spans:
                stream.write(json.dumps(span) + "\n")
            for span in tracer.worker_spans:
                stream.write(json.dumps([*span, "worker"]) + "\n")
        print_metrics(f"{workload.name}: seed {args.seed}, {count} queries, per layer", metrics)
        print_layers(rows, total, loop.wall_ns / 1e6)

    # Load shape: one client process, no client threads, every child stopped.
    leftover = multiprocessing.active_children()
    load_ok = threading.active_count() == threads_before == 1 and not leftover
    correct &= load_ok
    correct &= loop.failed == 0
    attempted = len(queries)
    print(f"  {'failed_ratio':32s} {loop.failed / attempted:14.6g}  {'ratio':6s} "
          f"{attempted:7d}  check")
    print(f"  {'sim_digest':32s} {loop.digest}")
    print(f"  load shape: 1 query process, {threading.active_count() - 1} client threads, "
          f"sweep workers <= {os.cpu_count()} cpus, {len(leftover)} children left")
    if loop.numpy_payloads:
        notes.append(f"{loop.numpy_payloads} report payloads hold NumPy scalars "
                     "(repro --json cannot write them)")
    for note in notes:
        print(f"  note: {note}")
    for error in loop.errors[:5]:
        print(f"  failed query {error['query']}: {error['errors'][0]}")

    results.update(metrics=metrics, latencies_s=loop.latencies_s, failed=loop.failed,
                   errors=loop.errors, sim_digest=loop.digest, correct=correct, notes=notes,
                   load={"client_threads": threading.active_count() - 1,
                         "children_left": len(leftover), "cpus": os.cpu_count()})
    shutil.rmtree(work_dir, ignore_errors=True)
    for cli_dir in run_dir.glob("cli*"):
        shutil.rmtree(cli_dir, ignore_errors=True)
    (run_dir / "result.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"  results: {run_dir.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints every metric by name for all of them."""
    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(next(iter(summary.values()))["metrics"])
    print(f"\n{'metric':32s} {'unit':6s} " + " ".join(f"{name:>14s}" for name in summary))
    for metric in names:
        unit = next(iter(summary.values()))["metrics"][metric]["unit"]
        values = " ".join(f"{result['metrics'][metric]['value']:14.6g}"
                          for result in summary.values())
        print(f"{metric:32s} {unit:6s} {values}")
    failed = " ".join(f"{r['failed'] / r['attempted']:14.6g}" for r in summary.values())
    print(f"{'failed_ratio':32s} {'ratio':6s} {failed}")
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{workload}.{metric}": value for workload, r in summary.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; sizes the query count on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
