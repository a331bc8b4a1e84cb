"""Conformance tests for traces, trace export and report formatting.

Locks down the contracts the e2e report and the committed artifacts rely on:
the Chrome trace export round-trips spans losslessly with stable field
ordering (byte-identical re-exports), and the breakdown tables render
percentages that sum to 100.
"""

import json

import pytest

from repro.analysis.breakdown import PATTERNS, breakdown_fractions, estimate_breakdown_table
from repro.analysis.reporting import format_table
from repro.core.config import OverlapSettings
from repro.e2e import EndToEndEstimator
from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Trace
from repro.sim.trace_export import export_chrome_trace, trace_to_chrome_events
from repro.workloads.e2e import build_workload


@pytest.fixture
def settings():
    return OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


@pytest.fixture
def trace():
    t = Trace()
    t.record("compute", "gemm-w0", 0.0, 2e-3, KernelCategory.GEMM)
    t.record("compute", "gemm-w1", 2e-3, 5e-3, KernelCategory.GEMM)
    t.record("comm", "ar-g0", 2.5e-3, 4e-3, KernelCategory.COMMUNICATION)
    t.record("comm", "signal", 2.5e-3, 2.5e-3, KernelCategory.SIGNAL)
    return t


class TestTraceRoundTrip:
    def test_spans_survive_export(self, trace):
        """Every duration span can be reconstructed from the exported events."""
        events = trace_to_chrome_events(trace)
        threads = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        rebuilt = Trace()
        for event in events:
            if event["ph"] != "X":
                continue
            start = event["ts"] / 1e6
            rebuilt.record(
                threads[event["tid"]],
                event["name"],
                start,
                start + event["dur"] / 1e6,
                KernelCategory(event["cat"]),
            )
        original = [s for s in trace.spans if s.duration > 0]
        assert len(rebuilt.spans) == len(original)
        for a, b in zip(original, rebuilt.spans):
            assert (a.stream, a.name, a.category) == (b.stream, b.name, b.category)
            assert b.start == pytest.approx(a.start, abs=1e-12)
            assert b.duration == pytest.approx(a.duration, abs=1e-12)
        assert rebuilt.makespan() == pytest.approx(trace.makespan())

    def test_export_is_byte_stable(self, trace, tmp_path):
        """Re-exporting the same trace produces byte-identical JSON."""
        a = export_chrome_trace(trace, tmp_path / "a.json").read_bytes()
        b = export_chrome_trace(trace, tmp_path / "b.json").read_bytes()
        assert a == b

    def test_event_field_order_is_stable(self, trace):
        """Key order within each event dict is deterministic across calls."""
        first = [list(e.keys()) for e in trace_to_chrome_events(trace)]
        second = [list(e.keys()) for e in trace_to_chrome_events(trace)]
        assert first == second
        payload = json.dumps(trace_to_chrome_events(trace))
        assert json.dumps(trace_to_chrome_events(trace)) == payload


class TestBreakdownPercentages:
    def _shares_from_table(self, table: str) -> list[float]:
        """Sum the ``NN.N%`` cells of every data row of a breakdown table."""
        sums = []
        for line in table.splitlines():
            cells = [c for c in line.split() if c.endswith("%")]
            if cells:
                sums.append(sum(float(c[:-1]) for c in cells))
        return sums

    def test_workload_breakdown_sums_to_100(self, settings):
        estimator = EndToEndEstimator(settings)
        estimates = [
            estimator.estimate(build_workload(name, tokens=1024, layers=1))
            for name in ("llama2-training", "mixtral-training")
        ]
        for estimate in estimates:
            fractions = breakdown_fractions(estimate)
            assert set(fractions) == set(PATTERNS)
            assert sum(fractions.values()) == pytest.approx(1.0)
        row_sums = self._shares_from_table(estimate_breakdown_table(estimates))
        assert len(row_sums) == len(estimates)
        for row_sum in row_sums:
            assert row_sum == pytest.approx(100.0, abs=0.2)

    def test_estimate_breakdown_sums_to_100(self, settings):
        workload = build_workload("llama2-training", tokens=1024, layers=1)
        estimate = EndToEndEstimator(settings).estimate(workload)
        assert sum(estimate.pattern_shares().values()) == pytest.approx(1.0)
        table = estimate_breakdown_table([estimate])
        for row_sum in self._shares_from_table(table):
            assert row_sum == pytest.approx(100.0, abs=0.2)
        assert workload.name in table


class TestTableFormatting:
    def test_data_rows_align(self):
        table = format_table(["a", "bb"], [["x", 1.5], ["long-cell", 22.25]], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        data = lines[2:]  # header separator included
        assert len({len(line) for line in lines[1:2] + data[1:]}) == 1

    def test_empty_rows_render_headers(self):
        table = format_table(["only", "headers"], [])
        assert "only" in table and "headers" in table
