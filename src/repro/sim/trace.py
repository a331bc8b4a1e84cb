"""Timeline traces: spans on named streams.

A trace is the simulated analogue of an Nsight timeline: every kernel
execution becomes a :class:`Span` on a stream.  Readers work stream by
stream -- an ASCII rendering makes it easy to eyeball a plan from a
terminal or a test failure message, and :mod:`repro.sim.trace_export`
writes one Chrome-trace thread per stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.kernels import KernelCategory


@dataclass(frozen=True)
class Span:
    """One kernel execution on a stream."""

    stream: str
    name: str
    start: float
    end: float
    category: KernelCategory = KernelCategory.OTHER

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span {self.name!r} ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
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
