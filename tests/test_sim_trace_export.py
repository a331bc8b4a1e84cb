"""Tests for the Chrome trace export (repro.sim.trace_export)."""

import json

import pytest

from oracles.event_executor import EventDrivenExecutor
from repro.core.wave_grouping import WavePartition
from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Trace
from repro.sim.trace_export import export_chrome_trace, trace_to_chrome_events


@pytest.fixture
def trace():
    t = Trace()
    t.record("compute", "gemm", 0.0, 10e-3, KernelCategory.GEMM)
    t.record("comm", "ar-g1", 4e-3, 8e-3, KernelCategory.COMMUNICATION)
    t.record("comm", "signal-g1", 4e-3, 4e-3, KernelCategory.SIGNAL)
    return t


class TestChromeEvents:
    def test_metadata_events_name_streams(self, trace):
        events = trace_to_chrome_events(trace, process_name="gpu0")
        meta = [e for e in events if e["ph"] == "M"]
        assert {"gpu0", "compute", "comm"} == {e["args"]["name"] for e in meta}

    def test_duration_events_in_microseconds(self, trace):
        events = trace_to_chrome_events(trace)
        gemm = next(e for e in events if e.get("name") == "gemm")
        assert gemm["ph"] == "X"
        assert gemm["ts"] == pytest.approx(0.0)
        assert gemm["dur"] == pytest.approx(10_000.0)

    def test_zero_duration_spans_become_instants(self, trace):
        events = trace_to_chrome_events(trace)
        signal = next(e for e in events if e.get("name") == "signal-g1")
        assert signal["ph"] == "i"
        assert "dur" not in signal

    def test_streams_map_to_distinct_threads(self, trace):
        events = trace_to_chrome_events(trace)
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert len(tids) == 2


class TestFileRoundTrip:
    def test_export_and_load(self, trace, tmp_path):
        path = export_chrome_trace(trace, tmp_path / "trace.json")
        # The file is valid JSON parsable by any trace viewer.
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["displayTimeUnit"] == "ms"
        assert any(e.get("name") == "ar-g1" for e in payload["traceEvents"])

    def test_export_of_simulated_overlap(self, small_problem, fast_settings, tmp_path):
        executor = EventDrivenExecutor(small_problem, fast_settings)
        partition = WavePartition.per_wave(executor.num_waves())
        result = executor.simulate(partition, record_tiles=True)
        path = export_chrome_trace(result.trace, tmp_path / "overlap.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        names = {e.get("name") for e in payload["traceEvents"]}
        assert any(str(name).startswith("AR-G") for name in names)
        assert any(str(name).startswith("tile-") for name in names)
