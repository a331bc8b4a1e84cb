"""Perf harness for the pipeline scheduling layer (``repro.pp``).

A standalone CLI (like ``bench_e2e_speedup.py``) that scans llama3-training
over stage count x microbatch count x schedule through one shared plan store
and emits a machine-readable ``BENCH_pp.json``:

* **bubble grid**: bubble ratio and step latency per (stages, microbatches,
  schedule) -- at every grid point the ratio must fall strictly from GPipe
  to 1F1B to zero-bubble;
* **schedule gains**: the step-time ratios GPipe/1F1B and 1F1B/zero-bubble
  (the pipeline-scheduling analogue of the overlap speedups), plus the
  FlashOverlap-over-non-overlap speedup per schedule -- deterministic
  ratios, portable across machines;
* **degeneracy and reuse checks**: a 1-stage/1-microbatch run embeds e2e
  totals bit-identical to ``repro e2e``, plan reuse is bit-identical to
  re-tuning, and repeated runs are deterministic.

``--check`` compares every ``*speedup*`` ratio against a committed baseline
(``benchmarks/BENCH_pp_baseline.json``) and exits non-zero on a >2x
regression; ratios rather than absolute times are compared so the gate is
portable across CI machines.

Usage::

    python benchmarks/bench_pp_bubble.py            # full grid (8 paper layers)
    python benchmarks/bench_pp_bubble.py --smoke    # CI-sized grid (4 layers)
    python benchmarks/bench_pp_bubble.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro import obs
from repro.atomic import atomic_write_text
from repro.core.config import OverlapSettings
from repro.e2e import EndToEndEstimator
from repro.pp import PipelineEstimator
from repro.pp.schedule import KNOWN_SCHEDULES
from repro.workloads.e2e import build_workload
from repro.workloads.pipeline import build_pipeline_workload

DEFAULT_OUT = Path(__file__).resolve().parent / "output" / "BENCH_pp.json"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_pp_baseline.json"

WORKLOAD = "llama3-training"

#: Fail --check when a speedup ratio drops below baseline / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0


def _grid(smoke: bool) -> tuple[int, list[int], list[int]]:
    """(layers, stage counts, microbatch counts) of the scan."""
    if smoke:
        return 4, [2, 4], [4, 8]
    return 8, [2, 4, 8], [4, 8, 16]


def bench_bubble_grid(smoke: bool) -> tuple[dict, bool, bool]:
    """Scan stages x microbatches x schedule through one shared plan store."""
    layers, stage_counts, microbatch_counts = _grid(smoke)
    settings = OverlapSettings()
    estimator = PipelineEstimator(settings)
    grid: dict[str, dict] = {}
    monotonic = True
    for stages in stage_counts:
        for microbatches in microbatch_counts:
            workload = build_pipeline_workload(
                WORKLOAD, stages=stages, microbatches=microbatches,
                layers=layers, settings=settings,
            )
            estimate = estimator.estimate(workload)
            bubbles = estimate.bubble_ratios()
            monotonic = monotonic and (
                bubbles["gpipe"] > bubbles["1f1b"] > bubbles["zero-bubble"]
            )
            steps = {name: s.step_latency for name, s in estimate.schedules.items()}
            grid[f"stages{stages}-mb{microbatches}"] = {
                "stage_layers": list(estimate.stage_layers),
                "bubble_ratio": bubbles,
                "step_ms": {name: step * 1e3 for name, step in steps.items()},
                "overlap_speedup": {
                    name: s.speedup for name, s in estimate.schedules.items()
                },
                "gpipe_over_1f1b_speedup": steps["gpipe"] / steps["1f1b"],
                "1f1b_over_zero_bubble_speedup": steps["1f1b"] / steps["zero-bubble"],
            }
    stats = estimator.plan_store.stats()
    hits_seen = stats["hit_rate"] > 0
    grid["plan_store"] = {
        "lookups": stats["lookups"],
        "hit_rate": stats["hit_rate"],
        "tuner_invocations": stats["tuner_invocations"],
    }
    return grid, monotonic, hits_seen


def _schedule_steps(estimate) -> dict:
    return {
        name: [result.step_latency for result in schedule.methods.values()]
        for name, schedule in estimate.schedules.items()
    }


def bench_checks(smoke: bool) -> dict:
    """Degeneracy / reuse / determinism checks of the pipeline estimator."""
    layers, stage_counts, microbatch_counts = _grid(smoke)
    settings = OverlapSettings()

    def run(reuse: bool):
        workload = build_pipeline_workload(
            WORKLOAD, stages=stage_counts[0], microbatches=microbatch_counts[0],
            layers=layers, settings=settings,
        )
        return PipelineEstimator(settings, reuse=reuse).estimate(workload)

    first, second, unreused = run(True), run(True), run(False)
    deterministic = json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )
    reuse_identical = json.dumps(_schedule_steps(first), sort_keys=True) == json.dumps(
        _schedule_steps(unreused), sort_keys=True
    )

    degenerate = PipelineEstimator(settings).estimate(
        build_pipeline_workload(WORKLOAD, stages=1, microbatches=1,
                                layers=layers, settings=settings)
    )
    reference = EndToEndEstimator(settings).estimate(
        build_workload(WORKLOAD, layers=layers, settings=settings)
    )
    s1m1_matches = degenerate.microbatch_estimate.to_dict() == reference.to_dict()
    return {
        "deterministic": deterministic,
        "reuse_bit_identical": reuse_identical,
        "s1m1_matches_e2e": s1m1_matches,
    }


def _walk_speedups(metrics: dict, prefix: str = "") -> dict[str, float]:
    """Flatten every ``*speedup*`` ratio in the metrics tree."""
    found: dict[str, float] = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            found.update(_walk_speedups(value, f"{prefix}{key}."))
        elif "speedup" in key or prefix.rstrip(".").endswith("speedup"):
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
    parser.add_argument("--smoke", action="store_true", help="CI-sized grid (4 layers)")
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

    with obs.observe() as obs_session:
        with obs.span("grid"):
            grid, monotonic, hits_seen = bench_bubble_grid(args.smoke)
        with obs.span("checks"):
            checks = bench_checks(args.smoke)
    report = {
        "meta": {
            "smoke": args.smoke,
            "workload": WORKLOAD,
            "schedules": list(KNOWN_SCHEDULES),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "metrics": {"grid": grid},
        "checks": {
            "bubble_strictly_decreasing_everywhere": monotonic,
            "plan_store_reused_across_grid": hits_seen,
            **checks,
        },
        "observability": obs_session.snapshot(command="bench_pp_bubble").to_dict(),
    }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")

    print(f"wrote {args.out}")
    for point, payload in grid.items():
        if "bubble_ratio" not in payload:
            continue
        bubbles = payload["bubble_ratio"]
        print(f"  {point:18s} bubble: "
              + "  ".join(f"{name} {bubbles[name] * 100:5.1f}%" for name in KNOWN_SCHEDULES))
    for name, value in sorted(_walk_speedups(report["metrics"]).items()):
        print(f"  {name:60s} {value:8.3f}x")
    for name, ok in report["checks"].items():
        print(f"  {name:60s} {'ok' if ok else 'FAILED'}")

    failed = [name for name, ok in report["checks"].items() if not ok]
    if failed:
        print(f"pp checks failed: {', '.join(failed)}", file=sys.stderr)
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
