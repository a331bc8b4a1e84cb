"""``benchmarks/ledger.py --compare OLD NEW`` on synthetic ledger files.

The comparison reads the two files and ``BENCHMARK.json`` only: per workload
it prints NEW/OLD for every end-to-end metric, flags a move past the metric's
bound in its worse direction and any changed ``sim_digest``, and exits 1
when it flags anything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _ledger(scale: dict[str, float] | None = None, digests: dict[str, str] | None = None) -> dict:
    """A ledger whose every median is 10, times ``scale[metric]`` on ``e2e-paper``."""
    workloads = {}
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        factors = (scale or {}) if workload == "e2e-paper" else {}
        median = {metric["name"]: 10.0 * factors.get(metric["name"], 1.0)
                  for metric in SPEC["end_to_end"]}
        sim_digest = {"1": "aaa", "424242": "bbb"}
        if workload == "e2e-paper":
            sim_digest.update(digests or {})
        workloads[workload] = {"median": median, "sim_digest": sim_digest}
    return {"pr": 1, "commit": "0" * 40, "dirty": False, "seeds": [1, 424242],
            "workloads": workloads}


def _compare(tmp_path: Path, old: dict, new: dict) -> subprocess.CompletedProcess:
    (tmp_path / "old.json").write_text(json.dumps(old), encoding="utf-8")
    (tmp_path / "new.json").write_text(json.dumps(new), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ledger.py"), "--compare",
         str(tmp_path / "old.json"), str(tmp_path / "new.json")],
        capture_output=True, text=True, timeout=60, check=False,
    )


def _line(stdout: str, workload: str, metric: str) -> str:
    lines = stdout.splitlines()
    start = lines.index(workload)
    return next(line for line in lines[start + 1:] if line.split()[:1] == [metric])


def test_gains_and_moves_within_bounds_flag_nothing(tmp_path):
    # Every metric moves inside its bound or in its better direction.
    new = _ledger({"query_p50_ms": 0.5, "queries_per_s": 1.9, "peak_rss_mb": 1.1,
                   "sim_speedup_geomean": 0.96})
    done = _compare(tmp_path, _ledger(), new)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0.500x" in _line(done.stdout, "e2e-paper", "query_p50_ms")
    assert "1.900x" in _line(done.stdout, "e2e-paper", "queries_per_s")
    assert "FLAG" not in done.stdout
    assert _line(done.stdout, "e2e-paper", "sim_digest").split()[1:4] == ["2", "of", "2"]
    assert done.stdout.splitlines()[-1] == "flagged 0"
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        assert "1.000x" in _line(done.stdout, workload, "setup_s")


def test_regressions_past_their_bound_and_changed_digests_exit_1(tmp_path):
    bound = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    new = _ledger(
        {"query_p50_ms": 1.0 + bound["query_p50_ms"] + 0.01,  # lower is better
         "queries_per_s": 1.0 - bound["queries_per_s"] - 0.01,  # higher is better
         "setup_s": 1.0 + bound["setup_s"] - 0.01},  # worse, but inside its bound
        digests={"424242": "ccc"},
    )
    done = _compare(tmp_path, _ledger(), new)
    assert done.returncode == 1
    assert "FLAG" in _line(done.stdout, "e2e-paper", "query_p50_ms")
    assert "FLAG" in _line(done.stdout, "e2e-paper", "queries_per_s")
    assert "FLAG" not in _line(done.stdout, "e2e-paper", "setup_s")
    assert "FLAG: changed on seeds 424242" in _line(done.stdout, "e2e-paper", "sim_digest")
    assert "FLAG" not in _line(done.stdout, "pipeline", "sim_digest")
    assert "flagged 3" in done.stdout
