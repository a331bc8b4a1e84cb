"""Tests for the end-to-end estimator (repro.e2e.estimator / report)."""

import json

import pytest

from repro.core.config import OverlapSettings
from repro.e2e import EndToEndEstimator, estimate_models
from repro.e2e.estimator import make_plan_store
from repro.sim.trace_export import export_chrome_trace
from repro.workloads.e2e import build_workload, workload_builders

#: Small-but-real workload parameters shared by the suite (cheap to tune).
TOKENS = 2048
LAYERS = 3


@pytest.fixture
def settings():
    return OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


@pytest.fixture
def workload():
    return build_workload("llama2-training", tokens=TOKENS, layers=LAYERS)


@pytest.fixture
def estimator(settings):
    return EndToEndEstimator(settings)


class TestEstimator:
    def test_totals_ordered_and_positive(self, estimator, workload):
        estimate = estimator.estimate(workload)
        assert 0 < estimate.theoretical_total <= estimate.non_overlap_total
        assert estimate.overlap_total < estimate.non_overlap_total
        assert estimate.speedup > 1.0
        assert estimate.bound_speedup >= estimate.speedup

    def test_repeated_layers_hit_plan_store(self, estimator, workload):
        estimate = estimator.estimate(workload)
        targets = sum(1 for op in workload.operators if op.is_overlap_target)
        stats = estimate.plan_stats
        assert stats["lookups"] == targets * LAYERS
        # Layers 2..N are pure hits; layer 1 may miss once per distinct shape.
        assert stats["hits"] >= targets * (LAYERS - 1)
        assert stats["hit_rate"] > 0
        assert stats["tuner_invocations"] == stats["misses"]

    def test_reuse_is_bit_identical(self, settings, workload):
        reused = EndToEndEstimator(settings).estimate(workload)
        unreused = EndToEndEstimator(settings, reuse=False).estimate(workload)
        assert reused.overlap_total == unreused.overlap_total
        assert reused.non_overlap_total == unreused.non_overlap_total
        assert reused.theoretical_total == unreused.theoretical_total
        assert unreused.plan_stats["hits"] == 0
        assert unreused.plan_stats["tuner_invocations"] == unreused.plan_stats["lookups"]

    def test_cross_workload_reuse(self, estimator, workload):
        first = estimator.estimate(workload)
        second = estimator.estimate(workload)
        assert second.plan_stats["misses"] == 0
        assert second.plan_stats["hit_rate"] == 1.0
        assert second.overlap_total == first.overlap_total

    def test_layer_totals_scale(self, settings):
        one = EndToEndEstimator(settings).estimate(
            build_workload("llama2-training", tokens=TOKENS, layers=1)
        )
        three = EndToEndEstimator(settings).estimate(
            build_workload("llama2-training", tokens=TOKENS, layers=3)
        )
        assert three.overlap_total == pytest.approx(3 * one.overlap_total, rel=1e-9)

    def test_pattern_shares_sum_to_one(self, estimator, workload):
        shares = estimator.estimate(workload).pattern_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares.get("GEMM+RS", 0.0) > 0

    def test_make_plan_store_modes(self, settings):
        assert make_plan_store(settings).capacity > 0
        assert make_plan_store(settings, reuse=False).capacity == 0


class TestTrace:
    def test_trace_matches_stream(self, estimator, workload, tmp_path):
        estimate = estimator.estimate(workload, record_trace=True)
        trace = estimate.trace
        assert trace is not None
        occurrences = LAYERS * sum(op.count for op in workload.operators)
        assert len(trace.spans) == occurrences
        trace.validate_stream_order()
        assert trace.makespan() == estimate.overlap_total
        path = export_chrome_trace(trace, tmp_path / "e2e.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == occurrences

    def test_trace_off_by_default(self, estimator, workload):
        assert estimator.estimate(workload).trace is None

    def test_occurrences_run_back_to_back_in_stream_order(self, estimator, workload):
        estimate = estimator.estimate(workload, record_trace=True)
        expected, now = [], 0.0
        for layer in range(LAYERS):
            for op in estimate.operators:
                for _ in range(op.count):
                    expected.append((f"L{layer}/{op.name}", now, now + op.overlap_latency))
                    now += op.overlap_latency
        spans = estimate.trace.spans
        assert [(s.name, s.start, s.end) for s in spans] == expected
        assert estimate.overlap_total == now

    def test_trace_does_not_change_the_total(self, settings, workload):
        traced = EndToEndEstimator(settings).estimate(workload, record_trace=True)
        plain = EndToEndEstimator(settings).estimate(workload)
        assert traced.overlap_total == plain.overlap_total


class TestReport:
    def test_estimate_models_runs_all_five(self, settings):
        report = estimate_models(tokens=TOKENS, layers=2, settings=settings)
        assert len(report.estimates) == len(workload_builders()) == 5
        assert report.plan_stats["hit_rate"] > 0
        table = report.table()
        for estimate in report.estimates:
            assert estimate.name in table
        assert "plan hits" in table

    def test_report_tables_and_dict_are_stable(self, settings):
        kwargs = dict(names=["llama2-training"], tokens=TOKENS, layers=2, settings=settings)
        a = estimate_models(**kwargs)
        b = estimate_models(**kwargs)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
        assert a.operator_table(a.estimates[0]) == b.operator_table(b.estimates[0])
        assert a.breakdown_table() == b.breakdown_table()

    def test_one_store_serves_every_estimated_model(self, settings):
        # estimate_models prices all its workloads through one estimator, so
        # a workload estimated a second time finds every plan in the store.
        report = estimate_models(names=["llama3-inference", "llama3-inference"], layers=1,
                                 settings=settings)
        first, again = report.estimates
        assert first.plan_stats["misses"] > 0
        assert again.plan_stats["hit_rate"] == 1.0
        assert again.overlap_total == first.overlap_total


class TestNoDeterioration:
    def test_no_overlap_target_is_slower_than_non_overlap(self):
        """The paper's promise on all five workloads at smoke size, default settings.

        The plan store validates the tuner's overlap-vs-fallback flag against
        the simulated sequential execution, so a fallback operator runs at
        exactly 1.0x and none falls below it.
        """
        report = estimate_models(layers=2, settings=OverlapSettings())
        assert len(report.estimates) == 5
        speedups = [
            op.speedup for estimate in report.estimates
            for op in estimate.operators if op.is_overlap_target
        ]
        assert speedups
        assert min(speedups) >= 1.0 - 1e-12
