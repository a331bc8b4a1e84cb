"""Differential suite: the columnar ``Trace`` vs the list-of-``Span`` oracle.

``repro.sim.trace.Trace`` keeps its spans as five parallel columns, checks
"ends before it starts" in ``record`` and ``extend``, and builds ``Span``
objects only when ``spans`` is read; ``oracles.trace.ReferenceTrace`` builds
one ``Span`` per call and answers every query from that list.  Hypothesis
drives the same random ``record`` and ``extend`` calls through both -- on
one to four streams, with starts out of recording order, zero-length spans,
spans that touch or overlap on a stream, and one span that ends before it
starts, which must raise on both sides and leave both traces as they were --
and compares every reader: the spans, the streams, each stream's spans, the
makespan, the ASCII rendering at two widths, ``validate_stream_order``'s
verdict and message, and the Chrome trace events.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from oracles.trace import ReferenceTrace, chrome_events
from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Trace
from repro.sim.trace_export import trace_to_chrome_events

STREAMS = ("compute", "comm", "stage0", "stage1")
#: Span names, the empty one included (the ASCII rendering marks it ``#``).
NAMES = st.text(alphabet="abgFBW-1", max_size=3)
CATEGORIES = st.sampled_from(list(KernelCategory))
#: Times on a coarse grid, so spans often touch, overlap or have zero length.
TICKS = st.integers(min_value=0, max_value=24)
#: One span: (name, start tick, length in ticks, category).
SPANS = st.tuples(NAMES, TICKS, st.integers(min_value=0, max_value=6), CATEGORIES)


@st.composite
def calls(draw):
    """``(kind, stream, spans)`` calls, one span of one call running backwards."""
    streams = STREAMS[: draw(st.integers(min_value=1, max_value=4))]
    drawn = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["record", "extend"]),
                st.sampled_from(streams),
                st.lists(SPANS, min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=12,
        )
    )
    scale = draw(st.sampled_from([1.0, 1e-3, 0.1]))
    backwards = draw(st.integers(min_value=0, max_value=len(drawn) - 1))
    result = []
    for index, (kind, stream, spans) in enumerate(drawn):
        if kind == "record":
            spans = spans[:1]
        rows = [
            (name, start * scale, (start + length) * scale, category)
            for name, start, length, category in spans
        ]
        if index == backwards:
            at = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            name, start, _, category = rows[at]
            rows[at] = (name, start, start - scale * draw(st.sampled_from([0.5, 1, 3])), category)
        result.append((kind, stream, rows))
    return result


def outcome_of(call):
    """``("ok", value)`` or ``("error", type, message)`` of one call."""
    try:
        return ("ok", call())
    except ValueError as error:
        return ("error", type(error), str(error))


def apply(trace, kind, stream, rows):
    if kind == "record":
        ((name, start, end, category),) = rows
        trace.record(stream, name, start, end, category)
    else:
        names, starts, ends, categories = (list(column) for column in zip(*rows))
        trace.extend(stream, names, starts, ends, categories)


@hsettings(max_examples=300, deadline=None)
@given(ops=calls())
def test_columnar_trace_matches_the_span_list_oracle(ops):
    trace, reference = Trace(), ReferenceTrace()
    errors = 0
    for kind, stream, rows in ops:
        outcome = outcome_of(partial(apply, trace, kind, stream, rows))
        assert outcome == outcome_of(partial(apply, reference, kind, stream, rows))
        errors += outcome[0] == "error"
        assert trace.spans == reference.spans
    assert errors == 1

    spans = trace.spans
    assert spans == reference.spans
    assert trace.streams() == reference.streams()
    for stream in STREAMS:
        assert [span for span in spans if span.stream == stream] == reference.spans_on(stream)
    assert trace.makespan() == reference.makespan()
    for width in (20, 64):
        assert trace.render_ascii(width) == reference.render_ascii(width)
    assert outcome_of(trace.validate_stream_order) == outcome_of(reference.validate_stream_order)
    assert trace_to_chrome_events(trace, "p") == chrome_events(reference, "p")


def test_an_empty_trace_matches_the_oracle():
    trace, reference = Trace(), ReferenceTrace()
    assert trace.spans == reference.spans == []
    assert trace.streams() == reference.streams() == []
    assert trace.makespan() == reference.makespan() == 0.0
    assert trace.render_ascii(20) == reference.render_ascii(20) == "(empty trace)"
    trace.validate_stream_order()
    assert trace_to_chrome_events(trace) == chrome_events(reference)
