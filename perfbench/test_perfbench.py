"""Self-test of the benchmark runner on tiny query lists.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}

_MATRIX = {"name": "tiny", "workload": "bench", "shapes": [[1024, 4096, 4096]],
           "platforms": [["a800", "a800-nvlink", 4]], "collectives": ["allreduce", "reducescatter"]}

#: One small query per call, so every traced layer sees some work.
TINY = [
    {"call": "estimate", "kind": "tp4",
     "args": {"workloads": ["llama2-training"], "tokens": 2048, "cluster": {"gpus": 4}}},
    {"call": "pp", "kind": "pp-s2m4",
     "args": {"workloads": ["llama2-training"], "stages": 2, "microbatches": 4, "layers": 2,
              "tokens": 2048, "cluster": {"gpus": 2}, "record_trace": True}},
    {"call": "plan", "kind": "plan",
     "args": {"workload": "llama2-training", "layers": 2, "tokens": 4096, "tp_degrees": [2, 4],
              "microbatch_counts": [2], "cluster": {"gpus": 4}}},
    {"call": "serve", "kind": "faulted",
     "args": {"baseline": True, "workload": "llama2-7b", "requests": 24, "rate": 32.0,
              "distribution": "chat", "seed": 3, "fault_preset": "replica-crash",
              "retry_policy": "retries=2,backoff=0.05"}},
    {"call": "sweep", "kind": "prime", "args": {"matrix": _MATRIX, "baselines": True}},
    {"call": "sweep", "kind": "replay", "args": {"matrix": _MATRIX, "store_of": 4}},
]
for _index, _query in enumerate(TINY):
    _query["id"] = _index


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """The tiny list run untraced, then traced: (untraced, traced loop, tracer)."""
    work = tmp_path_factory.mktemp("work")
    untraced = run.run_queries(TINY, work / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_queries(TINY, work / "traced", tracer)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


def test_tiny_queries_pass_their_checks(passes):
    untraced, traced, _ = passes
    assert untraced.failed == traced.failed == 0, untraced.errors
    assert len(untraced.speedups) == len(TINY)


def test_tracing_changes_no_simulated_output(passes):
    untraced, traced, tracer = passes
    assert traced.digest == untraced.digest
    assert tracer.missing == []


def test_traced_rows_add_up_to_wall_time(passes):
    _, traced, tracer = passes
    rows, total = run.layer_table(tracer, traced.wall_ns)
    assert dict(rows)["(untraced)"] >= 0
    assert all(value >= 0 for _, value in rows)
    assert total == pytest.approx(traced.wall_ns / 1e6, rel=1e-9)
    if workloads.SWEEP_WORKERS > 1:  # both sweeps' jobs ran in traced workers
        assert tracer.layer_calls("sweep.worker") == 2 * len(_MATRIX["collectives"])


def test_every_per_layer_metric_is_emitted_with_its_unit(passes):
    untraced, traced, tracer = passes
    imports = dict.fromkeys([*run.SUBPACKAGES, "repro", "external"], 1.0)
    metrics = run.per_layer(tracer, traced, untraced, imports)
    assert {name: metric["unit"] for name, metric in metrics.items()} == PER_LAYER
    for layer in ("core.tuner.self_ms", "core.executor.self_ms", "pp.schedule.self_ms",
                  "sim.replay.self_ms", "serve.run.self_ms", "serve.scheduler.self_ms",
                  "faults.self_ms", "sweep.wait_ms", "plan.search.self_ms"):
        assert metrics[layer]["value"] > 0, layer
    assert metrics["plans.priced_cell_hit_ratio"]["value"] == pytest.approx(0.5)


def test_every_end_to_end_metric_is_emitted_with_its_unit(passes):
    untraced, _, _ = passes
    spawned = [{"wall_s": 0.5, "calibrations_ns": (3_000_000, 3_100_000), "ok": True}] * 3
    metrics = run.end_to_end(untraced, spawned, spawned)
    assert {name: metric["unit"] for name, metric in metrics.items()} == END_TO_END
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_tracer_uninstall_restores_the_package():
    from repro.core.tuner import PredictiveTuner
    from repro.gpu import gemm, swizzle

    originals = (PredictiveTuner.tune, gemm.execution_order, swizzle.swizzled_order)
    tracer = Tracer()
    tracer.install()
    assert gemm.execution_order is swizzle.execution_order is not originals[1]
    tracer.uninstall()
    assert (PredictiveTuner.tune, gemm.execution_order, swizzle.swizzled_order) == originals


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_queries_are_seeded_and_stratified(name):
    workload = workloads.WORKLOADS[name]
    count = workload.count(1)
    queries = workload.queries(7, count)
    assert len(queries) == count and count % workload.strata == 0
    assert queries == workload.queries(7, count)
    assert queries != workload.queries(8, count)
    assert json.loads(json.dumps(queries)) == queries
    assert [query["id"] for query in queries] == list(range(count))
    if name == "e2e-paper":
        keys = [json.dumps(query["args"], sort_keys=True) for query in queries]
        assert len(set(keys)) == len(keys)


def test_checks_flag_broken_outputs(passes, tmp_path):
    payloads = {}
    for query in TINY:
        report = workloads.prepare(query, tmp_path)()
        payloads[query["id"]] = workloads.canonical(query, report)
    assert not any(workloads.check(TINY[i], p).errors for i, p in payloads.items())

    def broken(index, mutate):
        payload = copy.deepcopy(payloads[index])
        mutate(payload)
        return workloads.check(TINY[index], payload).errors

    def swap_bubbles(payload):
        schedules = next(iter(payload["workloads"].values()))["schedules"]
        gpipe, zb = schedules["gpipe"]["methods"]["overlap"], schedules["zero-bubble"]["methods"]["overlap"]
        gpipe["bubble_ratio"], zb["bubble_ratio"] = zb["bubble_ratio"], gpipe["bubble_ratio"] + 0.1

    def slow_operator(payload):
        estimate = next(iter(payload["workloads"].values()))
        operator = next(op for op in estimate["operators"] if op["is_overlap_target"])
        operator["overlap_latency"] = operator["non_overlap_latency"] * 1.01

    assert broken(0, slow_operator)
    assert broken(1, swap_bubbles)
    assert broken(3, lambda p: p["overlap"]["metrics"].update(requests_completed=0))
    assert broken(4, lambda p: p["records"].pop())
    assert broken(4, lambda p: p["records"][0].update(status="error"))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(value) for value in range(100)]
    assert run.tail(samples) == (90.0, 89.0)
    assert run.tail(samples[:10]) == (100.0, 9.0)


def test_run_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep-grid", "--seed", "5",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e2e-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
