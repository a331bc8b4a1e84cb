"""Record the repository benchmark's end-to-end medians for one commit.

    python3 benchmarks/ledger.py <pr>

Runs perfbench (``BENCHMARK.json``'s command) with ``--trace 0`` once per
workload and seed, and writes ``BENCH_<pr>.json`` at the repository root: the
measured commit, whether ``src`` had uncommitted changes on top of it
(``dirty``), the seeds, and per workload the median of every end-to-end
metric over the seeds plus each seed's ``sim_digest``.  A change that claims
a gain commits its own file; its parent's file is the baseline.  Nothing is
written when a run exits non-zero, is not correct or fails a query.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seeds 1-5 plus perfbench's held-out seed.
SEEDS = (1, 2, 3, 4, 5, 424242)


def measure(spec: dict, workload: str, seed: int) -> tuple[dict, str]:
    """One perfbench run: its metrics and its ``sim_digest``; exits on any failure."""
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}\n{done.stdout[-2000:]}")
    digest = next(line.split()[1] for line in lines if line.split()[:1] == ["sim_digest"])
    print(f"{workload} seed {seed}: ok {digest[:12]}", file=sys.stderr)
    return result["metrics"], digest


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 benchmarks/ledger.py <pr>", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commit = _git("rev-parse", "HEAD").strip()
    # The measured tree is the commit only when src has no uncommitted change.
    dirty = bool(_git("status", "--porcelain", "--", "src").strip())
    names = [metric["name"] for metric in spec["end_to_end"]]
    workloads = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = [measure(spec, workload, seed) for seed in SEEDS]
        workloads[workload] = {
            "median": {name: statistics.median(m[name]["value"] for m, _ in runs) for name in names},
            "sim_digest": {str(seed): digest for seed, (_, digest) in zip(SEEDS, runs, strict=True)},
        }
    ledger = {"pr": int(argv[0]), "commit": commit, "dirty": dirty, "seeds": list(SEEDS),
              "workloads": workloads}
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
