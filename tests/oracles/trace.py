"""The timeline trace as a list of :class:`~repro.sim.trace.Span` objects.

:class:`repro.sim.trace.Trace` keeps its spans as five parallel columns and
builds :class:`~repro.sim.trace.Span` objects only when ``spans`` is read.
:class:`ReferenceTrace` is the same trace written span by span: every
``record`` builds a ``Span`` (whose own check rejects a span that ends
before it starts), and every query walks the span list, filtering it stream
by stream.  :func:`chrome_events` is the Chrome trace-event conversion over
that list.  A differential suite drives both with the same calls and
compares every reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.kernels import KernelCategory
from repro.sim.trace import Span
from repro.sim.trace_export import _CATEGORY_COLORS


@dataclass
class ReferenceTrace:
    """An ordered collection of spans."""

    spans: list[Span] = field(init=False, default_factory=list)

    def record(
        self,
        stream: str,
        name: str,
        start: float,
        end: float,
        category: KernelCategory = KernelCategory.OTHER,
    ) -> None:
        self.spans.append(Span(stream, name, start, end, category))

    def extend(self, stream, names, starts, ends, categories) -> None:
        """Build one stream's spans, then append them all (none on an error)."""
        self.spans.extend(
            [Span(stream, *row) for row in zip(names, starts, ends, categories)]
        )

    # -- queries ---------------------------------------------------------------

    def streams(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.stream, None)
        return list(seen)

    def spans_on(self, stream: str) -> list[Span]:
        return [s for s in self.spans if s.stream == stream]

    def makespan(self) -> float:
        """End time of the last span (start of time is 0)."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans)

    # -- rendering --------------------------------------------------------------

    def render_ascii(self, width: int = 80) -> str:
        """Render the trace as one text row per stream."""
        makespan = self.makespan()
        if makespan <= 0 or not self.spans:
            return "(empty trace)"
        lines = []
        for stream in self.streams():
            row = [" "] * width
            for span in self.spans_on(stream):
                lo = int(span.start / makespan * (width - 1))
                hi = max(lo + 1, int(span.end / makespan * (width - 1)) + 1)
                mark = span.name[:1].upper() or "#"
                for i in range(lo, min(hi, width)):
                    row[i] = mark
            lines.append(f"{stream:>12} |{''.join(row)}|")
        lines.append(f"{'':>12} 0{'':<{max(0, width - 12)}}{makespan * 1e3:.3f} ms")
        return "\n".join(lines)

    def validate_stream_order(self) -> None:
        """Raise if spans on any single stream overlap each other."""
        for stream in self.streams():
            spans = sorted(self.spans_on(stream), key=lambda s: s.start)
            for earlier, later in zip(spans, spans[1:]):
                if later.start < earlier.end - 1e-12:
                    raise ValueError(
                        f"stream {stream!r}: span {later.name!r} starts before "
                        f"{earlier.name!r} finishes"
                    )


def chrome_events(trace: ReferenceTrace, process_name: str = "simulated-gpu") -> list[dict]:
    """Chrome trace-event dicts of ``trace``, read span by span."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    stream_ids = {stream: index for index, stream in enumerate(trace.streams())}
    for stream, tid in stream_ids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": stream}}
        )
    for span in trace.spans:
        tid = stream_ids[span.stream]
        start_us = span.start * 1e6
        if span.duration == 0.0:
            events.append(
                {
                    "name": span.name,
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": tid,
                    "ts": start_us,
                    "cat": span.category.value,
                }
            )
            continue
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": start_us,
                "dur": span.duration * 1e6,
                "cat": span.category.value,
                "cname": _CATEGORY_COLORS.get(span.category, "generic_work"),
            }
        )
    return events
