"""Tests for timeline traces (repro.sim.trace)."""

import pytest

from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Span, Trace


@pytest.fixture
def trace():
    t = Trace()
    t.record("compute", "gemm", 0.0, 10.0, KernelCategory.GEMM)
    t.record("comm", "ar-g1", 4.0, 8.0, KernelCategory.COMMUNICATION)
    t.record("comm", "ar-g2", 10.0, 14.0, KernelCategory.COMMUNICATION)
    return t


class TestSpan:
    def test_duration(self):
        assert Span("s", "x", 1.0, 3.0).duration == 2.0

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            Span("s", "x", 3.0, 1.0)


class TestTraceQueries:
    def test_streams(self, trace):
        assert trace.streams() == ["compute", "comm"]
        assert [span.name for span in trace.spans if span.stream == "comm"] == ["ar-g1", "ar-g2"]

    def test_makespan(self, trace):
        assert trace.makespan() == 14.0
        assert Trace().makespan() == 0.0

    def test_record_appends_spans_in_call_order(self):
        t = Trace()
        t.record("stage1", "F0@s1", 2.0, 3.0, KernelCategory.GEMM)
        t.record("stage0", "F0@s0", 0.0, 1.0)
        t.record("stage1", "B0@s1", 3.0, 5.0)
        assert t.spans == [
            Span("stage1", "F0@s1", 2.0, 3.0, KernelCategory.GEMM),
            Span("stage0", "F0@s0", 0.0, 1.0, KernelCategory.OTHER),
            Span("stage1", "B0@s1", 3.0, 5.0, KernelCategory.OTHER),
        ]

    def test_streams_follow_first_appearance(self):
        t = Trace()
        t.record("stage1", "a", 0.0, 1.0)
        t.record("stage0", "b", 0.0, 1.0)
        t.record("stage1", "c", 1.0, 2.0)
        assert t.streams() == ["stage1", "stage0"]
        assert [s.name for s in t.spans if s.stream == "stage1"] == ["a", "c"]

    def test_extend_appends_one_stream_in_order(self):
        t = Trace()
        t.record("compute", "gemm", 0.0, 4.0, KernelCategory.GEMM)
        t.extend("comm", ["ar-g1", "ar-g2"], (1.0, 3.0), (3.0, 5.0),
                 [KernelCategory.COMMUNICATION] * 2)
        assert t.spans == [
            Span("compute", "gemm", 0.0, 4.0, KernelCategory.GEMM),
            Span("comm", "ar-g1", 1.0, 3.0, KernelCategory.COMMUNICATION),
            Span("comm", "ar-g2", 3.0, 5.0, KernelCategory.COMMUNICATION),
        ]
        assert t.streams() == ["compute", "comm"]

    def test_spans_are_built_on_each_read(self, trace):
        spans = trace.spans
        spans.clear()
        assert len(trace.spans) == 3
        assert trace.spans is not trace.spans


class TestRecordingChecks:
    def test_record_rejects_a_span_that_ends_before_it_starts(self):
        t = Trace()
        with pytest.raises(ValueError, match="span 'x' ends before it starts"):
            t.record("s", "x", 3.0, 1.0)
        assert t.spans == []

    def test_extend_rejects_a_backwards_span_and_appends_nothing(self):
        t = Trace()
        with pytest.raises(ValueError, match="span 'b' ends before it starts"):
            t.extend("s", ["a", "b", "c"], [0.0, 2.0, 2.0], [1.0, 1.5, 3.0],
                     [KernelCategory.OTHER] * 3)
        assert t.spans == [] and t.streams() == []

    def test_extend_rejects_columns_of_different_lengths(self):
        t = Trace()
        with pytest.raises(ValueError, match="must have one length"):
            t.extend("s", ["a", "b"], [0.0, 1.0], [1.0], [KernelCategory.OTHER] * 2)
        assert t.spans == []


class TestValidationAndRendering:
    def test_validate_stream_order_ok(self, trace):
        trace.validate_stream_order()

    def test_validate_stream_order_detects_overlap(self):
        t = Trace()
        t.record("comm", "a", 0.0, 5.0)
        t.record("comm", "b", 4.0, 6.0)
        with pytest.raises(ValueError):
            t.validate_stream_order()

    def test_validate_stream_order_ignores_recording_order(self):
        """Spans of one stream may be recorded out of time order, and spans
        on different streams may overlap freely."""
        t = Trace()
        t.record("stage0", "late", 5.0, 8.0)
        t.record("stage0", "early", 0.0, 5.0)
        t.record("stage1", "across", 1.0, 7.0)
        t.validate_stream_order()

    def test_render_ascii_contains_streams(self, trace):
        art = trace.render_ascii(width=60)
        assert "compute" in art and "comm" in art
        assert "ms" in art

    def test_render_empty(self):
        assert Trace().render_ascii() == "(empty trace)"
