"""Perf harness for the vectorized tuning & reordering fast path.

Unlike the ``bench_fig*`` scripts (which regenerate paper figures through
pytest-benchmark), this is a standalone CLI that measures the *throughput* of
the tuning/reordering subsystem old-vs-new and emits a machine-readable
``BENCH_tuning.json`` so subsequent PRs can track the perf trajectory:

* predictive tuning throughput (candidates/s), the scalar predictor and
  tuner oracles (``tests/oracles/``) vs the vectorized ``predict_batch``
  path, with the tuning decisions asserted identical,
* functional pipeline reorder throughput (elements/s), per-tile/per-row
  reference loops vs the cached index permutations, with outputs asserted
  ``np.allclose`` (in fact bit-identical),
* offline-profile memoization (cold vs warm tune calls),
* the tuning portion of a sweep (the smoke preset's scenarios) old vs new.

``--check`` compares the speedup ratios against a committed baseline
(``benchmarks/BENCH_tuning_baseline.json`` by default) and exits non-zero on
a >2x regression; ratios rather than absolute times are compared so the gate
is portable across CI machines.

Usage::

    python benchmarks/bench_tuner_throughput.py            # full run
    python benchmarks/bench_tuner_throughput.py --smoke    # CI-sized run
    python benchmarks/bench_tuner_throughput.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):  # tests/ holds the reference oracles
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

from oracles.predictor import predict_reference
from oracles.reordering import (
    all_to_all_reference,
    allreduce_reference,
    reduce_scatter_reference,
)
from oracles.tuner import predictive_reference
from repro import obs
from repro.atomic import atomic_write_text
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.predictor import LatencyPredictor, OfflineProfile, clear_profile_caches
from repro.core.reordering import (
    build_reorder_plan,
    run_all_to_all_pipeline,
    run_allreduce_pipeline,
    run_reduce_scatter_pipeline,
)
from repro.core.tuner import PredictiveTuner
from repro.core.wave_grouping import candidate_partitions_matrix
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape
from repro.sweep.presets import smoke_matrix

DEFAULT_OUT = Path(__file__).resolve().parent / "output" / "BENCH_tuning.json"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_tuning_baseline.json"

#: Fail --check when a speedup ratio drops below baseline / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` (seconds)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_predictive_tuning(smoke: bool, repeats: int) -> tuple[dict, bool]:
    """Candidates/s of the scalar predictor oracle vs predict_batch."""
    problem = OverlapProblem(
        shape=GemmShape(2048, 8192, 8192),
        device=RTX_4090,
        topology=rtx4090_pcie(4),
        collective=CollectiveKind.ALL_REDUCE,
    )
    settings = OverlapSettings()
    profile = OfflineProfile.build(problem, settings)
    predictor = LatencyPredictor(profile, total_bytes=problem.output_bytes())
    candidates = PredictiveTuner(settings).candidates(profile.num_waves)
    matrix = candidate_partitions_matrix(candidates)
    inner = 1 if smoke else 5

    def scalar() -> None:
        for _ in range(inner):
            for partition in candidates:
                predict_reference(predictor, partition)

    def batch() -> None:
        for _ in range(inner):
            predictor.predict_batch(matrix)

    scalar_s = _time(scalar, repeats)
    batch_s = _time(batch, repeats)
    evaluated = len(candidates) * inner
    identical = bool(
        np.array_equal(
            predictor.predict_batch(matrix),
            np.array([predict_reference(predictor, p) for p in candidates]),
        )
        and PredictiveTuner(settings).tune(problem) == predictive_reference(problem, settings)
    )
    return {
        "candidates": len(candidates),
        "scalar_candidates_per_s": evaluated / scalar_s,
        "batch_candidates_per_s": evaluated / batch_s,
        "speedup": scalar_s / batch_s,
    }, identical


def bench_pipeline_reorder(smoke: bool, repeats: int) -> tuple[dict, bool]:
    """Elements/s of the per-tile reference oracles vs the index reorders.

    Sized so the reorder stages dominate (many tiles per matrix, as in the
    paper's operator shapes): what is measured is the pre/post-communication
    reordering, not the functional NumPy collective both paths share.
    """
    rng = np.random.default_rng(0)
    size = 256 if smoke else 512
    tile = 8
    n_gpus = 4
    metrics: dict[str, dict] = {}
    all_equal = True

    def add(name: str, runner, reference, elements: int) -> None:
        nonlocal all_equal
        fast = runner()
        all_equal = all_equal and all(
            np.array_equal(a, b) for a, b in zip(fast.outputs, reference(), strict=True)
        )
        all_equal = all_equal and fast.allclose()
        fast_s = _time(runner, repeats)
        ref_s = _time(reference, repeats)
        metrics[name] = {
            "reference_elements_per_s": elements / ref_s,
            "fast_elements_per_s": elements / fast_s,
            "speedup": ref_s / fast_s,
        }

    # AllReduce: tile-level reorder over a shuffled multi-group plan.
    from repro.tensor.layout import TileLayout

    layout = TileLayout(m=size, n=size, tile_m=tile, tile_n=tile)
    order = list(rng.permutation(layout.num_tiles))
    step = max(1, layout.num_tiles // 8)
    groups = [order[i : i + step] for i in range(0, len(order), step)]
    ar_plan = build_reorder_plan(CollectiveKind.ALL_REDUCE, layout, groups, n_gpus)
    ar_mats = [rng.normal(size=(size, size)) for _ in range(n_gpus)]
    add(
        "allreduce",
        lambda: run_allreduce_pipeline(ar_mats, ar_plan),
        lambda: allreduce_reference(ar_mats, ar_plan),
        n_gpus * size * size,
    )

    rs_plan = build_reorder_plan(CollectiveKind.REDUCE_SCATTER, layout, groups, n_gpus)
    add(
        "reducescatter",
        lambda: run_reduce_scatter_pipeline(ar_mats, rs_plan),
        lambda: reduce_scatter_reference(ar_mats, rs_plan)[0],
        n_gpus * size * size,
    )

    # All-to-All: per-source plans, random token routing.
    a2a_size = 64 if smoke else 192
    a2a_layout = TileLayout(m=a2a_size, n=a2a_size, tile_m=8, tile_n=8)
    a2a_plans, a2a_mats, a2a_dests = [], [], []
    for _ in range(n_gpus):
        order = list(rng.permutation(a2a_layout.num_tiles))
        step = max(1, a2a_layout.num_tiles // 6)
        groups = [order[i : i + step] for i in range(0, len(order), step)]
        a2a_plans.append(
            build_reorder_plan(CollectiveKind.ALL_TO_ALL, a2a_layout, groups, n_gpus)
        )
        a2a_mats.append(rng.normal(size=(a2a_size, a2a_size)))
        a2a_dests.append(rng.integers(0, n_gpus, size=a2a_size))
    add(
        "alltoall",
        lambda: run_all_to_all_pipeline(a2a_mats, a2a_dests, a2a_plans),
        lambda: all_to_all_reference(a2a_mats, a2a_dests, a2a_plans),
        n_gpus * a2a_size * a2a_size,
    )

    speedups = [metrics[name]["speedup"] for name in metrics]
    metrics["speedup_geomean"] = float(np.exp(np.mean(np.log(speedups))))
    return metrics, all_equal


def bench_profile_memoization(smoke: bool, repeats: int) -> dict:
    """Tune calls with cold caches vs memoized offline profiles.

    Both timed callables run several inner passes so the measured spans stay
    well above the millisecond scale -- the CI regression gate compares these
    ratios on shared runners, where sub-millisecond best-of timings flake.
    """
    problems = [
        OverlapProblem(
            shape=GemmShape(m, 4096, 4096),
            device=RTX_4090,
            topology=rtx4090_pcie(4),
            collective=CollectiveKind.ALL_REDUCE,
        )
        for m in ((1024, 2048) if smoke else (1024, 2048, 4096, 8192))
    ]
    settings = OverlapSettings()
    tuner = PredictiveTuner(settings)
    inner = 5

    def cold() -> None:
        for _ in range(inner):
            clear_profile_caches()
            for problem in problems:
                tuner.tune(problem)

    def warm() -> None:
        for _ in range(inner):
            for problem in problems:
                tuner.tune(problem)

    cold_s = _time(cold, repeats)
    warm()  # populate
    warm_s = _time(warm, repeats)
    return {"cold_s": cold_s, "warm_s": warm_s, "speedup": cold_s / warm_s}


def bench_sweep_tuning(smoke: bool, repeats: int) -> dict:
    """Tuning wall-clock of the smoke sweep's scenarios, old path vs new.

    "Old" is pre-fast-path behavior: the scalar tuner oracle and a fresh
    offline profile per job.  "New" is the shipped configuration: vectorized
    ranking plus process-level profile memoization.
    """
    scenarios = smoke_matrix().expand()
    jobs = [(s.to_problem(), s.to_settings()) for s in scenarios]

    def old() -> None:
        for problem, settings in jobs:
            clear_profile_caches()
            predictive_reference(problem, settings)

    def new() -> None:
        for problem, settings in jobs:
            PredictiveTuner(settings).tune(problem)

    old_s = _time(old, repeats)
    clear_profile_caches()
    new()  # first pass pays the cache misses, as a real sweep's first job does
    new_s = _time(new, repeats)
    return {"jobs": len(jobs), "old_s": old_s, "new_s": new_s, "speedup": old_s / new_s}


def _walk_speedups(metrics: dict, prefix: str = "") -> dict[str, float]:
    """Flatten every ``speedup`` ratio in the metrics tree."""
    found: dict[str, float] = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            found.update(_walk_speedups(value, f"{prefix}{key}."))
        elif key in ("speedup", "speedup_geomean"):
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
    parser.add_argument("--smoke", action="store_true", help="CI-sized run (small grids, 1 repeat)")
    parser.add_argument("--repeats", type=int, default=None, help="timing repetitions (best-of)")
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
    # Best-of-3 even in smoke mode: the regression gate compares ratios, and a
    # single measurement on a loaded CI runner is too noisy to gate on.
    repeats = args.repeats if args.repeats is not None else 3

    with obs.observe() as obs_session:
        with obs.span("predictive_tuning"):
            predictive, decisions_identical = bench_predictive_tuning(args.smoke, repeats)
        with obs.span("pipeline_reorder"):
            reorder, pipelines_match = bench_pipeline_reorder(args.smoke, repeats)
        with obs.span("profile_memoization"):
            memoization = bench_profile_memoization(args.smoke, repeats)
        with obs.span("sweep_tuning"):
            sweep_tuning = bench_sweep_tuning(args.smoke, repeats)
    report = {
        "meta": {
            "smoke": args.smoke,
            "repeats": repeats,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "metrics": {
            "predictive_tuning": predictive,
            "pipeline_reorder": reorder,
            "profile_memoization": memoization,
            "sweep_tuning": sweep_tuning,
        },
        "checks": {
            "tuning_decisions_identical": decisions_identical,
            "pipeline_outputs_allclose": pipelines_match,
        },
        "observability": obs_session.snapshot(command="bench_tuner_throughput").to_dict(),
    }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    print(f"wrote {args.out}")
    for name, value in _walk_speedups(report["metrics"]).items():
        print(f"  {name:45s} {value:8.2f}x")
    for name, ok in report["checks"].items():
        print(f"  {name:45s} {'ok' if ok else 'FAILED'}")

    failed = [name for name, ok in report["checks"].items() if not ok]
    if failed:
        print(f"equivalence checks failed: {', '.join(failed)}", file=sys.stderr)
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
