"""Perf harness for the online serving subsystem (``repro.serve``).

A standalone CLI (like ``bench_tuner_throughput.py``) that measures the
serving simulator under deterministic Poisson traffic and emits a
machine-readable ``BENCH_serving.json``:

* **plan cache benefit**: the same serving run with the shape-bucketed plan
  cache vs with caching disabled (every lookup re-tunes); reports wall-clock
  speedup and tuner invocations per iteration, and asserts the simulated
  metrics are identical (the cache is a pure optimisation);
* **overlap vs non-overlap serving**: the *simulated* serving-level speedups
  (mean e2e latency, TTFT p99, makespan) of overlap execution over the
  sequential baseline -- deterministic, so portable across machines;
* **simulator throughput**: iterations/s and simulated-vs-wall time ratio of
  the event loop itself;
* **batched fast path**: wall-clock speedup of the batched serving loop
  (``ServingSimulator``) over the one-event-per-iteration oracle
  ``tests/oracles/serve.py::serve_reference`` on decode-heavy chat traffic,
  asserting the two are bit-identical.

``--check`` compares the speedup ratios against a committed baseline
(``benchmarks/BENCH_serving_baseline.json``) and exits non-zero on a >2x
regression; ratios rather than absolute times are compared so the gate is
portable across CI machines.

Usage::

    python benchmarks/bench_serving_throughput.py            # full run
    python benchmarks/bench_serving_throughput.py --smoke    # CI-sized run
    python benchmarks/bench_serving_throughput.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):  # tests/ holds the serving oracle
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

from oracles.serve import serve_reference
from repro import obs
from repro.atomic import atomic_write_text
from repro.comm.topology import a800_nvlink
from repro.core.config import OverlapSettings
from repro.serve import (
    PlanCache,
    PoissonArrivals,
    ServeConfig,
    ServingSimulator,
    distribution_by_name,
)
from repro.serve.simulator import SERVE_MODELS, SMOKE_SCENARIO
from repro.workloads.llm import LLAMA3_70B

DEFAULT_OUT = Path(__file__).resolve().parent / "output" / "BENCH_serving.json"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_serving_baseline.json"

#: Fail --check when a speedup ratio drops below baseline / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0


def _scenario(smoke: bool) -> tuple[ServeConfig, list]:
    """The benchmark's serving scenario (CI-sized in smoke mode)."""
    settings = OverlapSettings()
    if smoke:
        # The exact `repro serve --smoke` scenario (single source of truth).
        scenario = SMOKE_SCENARIO
        config = ServeConfig(
            model=SERVE_MODELS[scenario["workload"]],
            topology=a800_nvlink(4),
            layers=scenario["layers"],
            max_batch_tokens=scenario["max_batch_tokens"],
            max_batch_size=scenario["max_batch_size"],
            settings=settings,
        )
        arrivals = PoissonArrivals(
            rate_rps=scenario["rate"],
            distribution=distribution_by_name(scenario["distribution"]),
            seed=0,
            num_requests=scenario["requests"],
        )
    else:
        config = ServeConfig(
            model=LLAMA3_70B,
            topology=a800_nvlink(4),
            layers=4,
            max_batch_tokens=4096,
            max_batch_size=32,
            settings=settings,
        )
        arrivals = PoissonArrivals(
            rate_rps=48.0,
            distribution=distribution_by_name("code"),
            seed=0,
            num_requests=64,
        )
    return config, arrivals.generate()


def bench_plan_cache(config: ServeConfig, requests: list) -> tuple[dict, bool]:
    """Cached vs cache-disabled serving wall time (identical simulated output)."""

    def run(capacity: int):
        cache = PlanCache(config.settings, capacity=capacity)
        start = time.perf_counter()
        result = ServingSimulator(config, plan_cache=cache, mode="overlap").run(requests)
        return result, time.perf_counter() - start

    cached_result, cached_s = run(capacity=64)
    uncached_result, uncached_s = run(capacity=0)
    stats = cached_result.plan_cache_stats
    transparent = json.dumps(cached_result.metrics().to_dict()) == json.dumps(
        uncached_result.metrics().to_dict()
    )
    return {
        "iterations": cached_result.iterations,
        "tuner_invocations_cached": stats["tuner_invocations"],
        "tuner_invocations_uncached": uncached_result.plan_cache_stats["tuner_invocations"],
        "tuner_invocations_per_iteration": stats["tuner_invocations"] / cached_result.iterations,
        "hit_rate": stats["hit_rate"],
        "cached_s": cached_s,
        "uncached_s": uncached_s,
        "speedup": uncached_s / cached_s,
    }, transparent


def bench_overlap_vs_baseline(config: ServeConfig, requests: list) -> tuple[dict, bool, bool]:
    """Simulated serving-level speedups of overlap over the sequential baseline."""
    overlap = ServingSimulator(config, mode="overlap").run(requests)
    repeat = ServingSimulator(config, mode="overlap").run(requests)
    baseline = ServingSimulator(config, mode="non-overlap").run(requests)
    deterministic = json.dumps(overlap.to_dict()) == json.dumps(repeat.to_dict())
    om, bm = overlap.metrics(), baseline.metrics()
    overlap_wins = om.e2e_latency.mean < bm.e2e_latency.mean
    return {
        "iterations": overlap.iterations,
        "overlap_e2e_mean_s": om.e2e_latency.mean,
        "baseline_e2e_mean_s": bm.e2e_latency.mean,
        "e2e_mean": {"speedup": bm.e2e_latency.mean / om.e2e_latency.mean},
        "ttft_p99": {"speedup": bm.ttft.p99 / om.ttft.p99},
        "makespan": {"speedup": baseline.makespan_s / overlap.makespan_s},
    }, deterministic, overlap_wins


def bench_simulator_throughput(config: ServeConfig, requests: list) -> dict:
    """Event-loop throughput once every plan bucket is warm."""
    cache = PlanCache(config.settings)
    simulator = ServingSimulator(config, plan_cache=cache, mode="overlap")
    simulator.run(requests)  # warm the plan cache and the ops-by-bucket memo
    start = time.perf_counter()
    result = ServingSimulator(config, plan_cache=cache, mode="overlap").run(requests)
    wall_s = time.perf_counter() - start
    return {
        "iterations": result.iterations,
        "iterations_per_s": result.iterations / wall_s,
        "simulated_s": result.makespan_s,
        "wall_s": wall_s,
        "simulated_over_wall": result.makespan_s / wall_s,
    }


def bench_fast_path(config: ServeConfig, smoke: bool) -> tuple[dict, bool]:
    """Batched serving loop vs the one-event-per-iteration oracle.

    Decode-heavy chat traffic maximizes silent steady-decode runs -- the case
    the fast path collapses in bulk.  Both arms are timed best-of-N; the
    overlap arm shares a warmed plan cache per arm (identical warm-up, so the
    cumulative cache stats -- and hence the full result payloads -- stay
    comparable between arms).
    """
    # A modest arrival rate keeps few requests in flight at once, so decode
    # runs stay silent for long stretches -- the regime the paper's serving
    # traces spend most of their time in.
    requests = PoissonArrivals(
        rate_rps=8.0 if smoke else 4.0,
        distribution=distribution_by_name("chat"),
        seed=0,
        num_requests=24 if smoke else 64,
    ).generate()
    repeats = 3

    def measure(mode: str, warm: bool):
        results, best = {}, {}
        for fast in (True, False):
            cache = None
            if mode == "overlap":
                cache = PlanCache(config.settings, capacity=64)
                if warm:  # identical warm-up on each arm's private cache
                    ServingSimulator(config, plan_cache=cache, mode=mode).run(requests)
            run = ServingSimulator.run if fast else serve_reference
            best[fast] = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                results[fast] = run(
                    ServingSimulator(config, plan_cache=cache, mode=mode), requests
                )
                best[fast] = min(best[fast], time.perf_counter() - start)
        identical = json.dumps(results[True].to_dict(), sort_keys=True) == json.dumps(
            results[False].to_dict(), sort_keys=True
        )
        return {
            "iterations": results[True].iterations,
            "reference_s": best[False],
            "fast_s": best[True],
            "speedup": best[False] / best[True],
        }, identical

    non_overlap, non_overlap_identical = measure("non-overlap", warm=False)
    overlap, overlap_identical = measure("overlap", warm=True)
    return {
        "requests": len(requests),
        "non_overlap": non_overlap,
        "overlap_warm_cache": overlap,
    }, non_overlap_identical and overlap_identical


def _walk_speedups(metrics: dict, prefix: str = "") -> dict[str, float]:
    """Flatten every ``speedup`` ratio in the metrics tree."""
    found: dict[str, float] = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            found.update(_walk_speedups(value, f"{prefix}{key}."))
        elif key == "speedup":
            found[f"{prefix}{key}"] = float(value)
    return found


def check_regressions(report: dict, baseline_path: Path) -> list[str]:
    """Speedup ratios that regressed >2x vs the committed baseline."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = _walk_speedups(report["metrics"])
    reference = _walk_speedups(baseline.get("metrics", {}))
    failures = []
    for name, ref_value in reference.items():
        cur_value = current.get(name)
        if cur_value is None:
            failures.append(f"{name}: missing from current report (baseline {ref_value:.2f}x)")
        elif cur_value < ref_value / REGRESSION_FACTOR:
            failures.append(
                f"{name}: {cur_value:.2f}x is a >{REGRESSION_FACTOR:g}x regression "
                f"vs baseline {ref_value:.2f}x"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="report JSON path")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="committed baseline JSON"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero on a >{REGRESSION_FACTOR:g}x speedup regression vs the baseline",
    )
    args = parser.parse_args(argv)

    config, requests = _scenario(args.smoke)
    with obs.observe() as obs_session:
        with obs.span("plan_cache"):
            plan_cache, cache_transparent = bench_plan_cache(config, requests)
        with obs.span("serving"):
            serving, deterministic, overlap_wins = bench_overlap_vs_baseline(config, requests)
        with obs.span("simulator"):
            simulator = bench_simulator_throughput(config, requests)
        with obs.span("fast_path"):
            fast_path, fast_path_identical = bench_fast_path(config, args.smoke)
    report = {
        "meta": {
            "smoke": args.smoke,
            "model": config.model.name,
            "requests": len(requests),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "metrics": {
            "plan_cache": plan_cache,
            "serving": serving,
            "simulator": simulator,
            "fast_path": fast_path,
        },
        "checks": {
            "deterministic": deterministic,
            "plan_cache_transparent": cache_transparent,
            "fast_path_bit_identical": fast_path_identical,
            "fewer_tunes_than_iterations": (
                plan_cache["tuner_invocations_cached"] < plan_cache["iterations"]
            ),
            "overlap_beats_baseline": overlap_wins,
        },
        "observability": obs_session.snapshot(command="bench_serving_throughput").to_dict(),
    }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    print(f"wrote {args.out}")
    for name, value in _walk_speedups(report["metrics"]).items():
        print(f"  {name:45s} {value:8.2f}x")
    print(f"  {'tuner invocations / iteration':45s} "
          f"{plan_cache['tuner_invocations_per_iteration']:8.4f}")
    for name, ok in report["checks"].items():
        print(f"  {name:45s} {'ok' if ok else 'FAILED'}")

    failed = [name for name, ok in report["checks"].items() if not ok]
    if failed:
        print(f"serving checks failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if args.check:
        if not args.baseline.exists():
            print(f"baseline {args.baseline} missing; cannot --check", file=sys.stderr)
            return 1
        failures = check_regressions(report, args.baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"no >{REGRESSION_FACTOR:g}x regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
