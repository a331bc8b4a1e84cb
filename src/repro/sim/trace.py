"""Timeline traces: spans on named streams, with overlap queries.

A trace is the simulated analogue of an Nsight timeline: every kernel
execution becomes a :class:`Span` on a stream.  The analysis helpers compute
the quantities discussed in the paper -- head latency, overlapped time, tail
latency -- and an ASCII rendering makes it easy to eyeball a plan from a
terminal or a test failure message.
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

    def overlaps(self, other: "Span") -> float:
        """Overlapped duration with another span."""
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))


@dataclass
class Trace:
    """An ordered collection of spans."""

    spans: list[Span] = field(default_factory=list)

    def add(self, span: Span) -> Span:
        self.spans.append(span)
        return span

    def record(
        self,
        stream: str,
        name: str,
        start: float,
        end: float,
        category: KernelCategory = KernelCategory.OTHER,
    ) -> Span:
        return self.add(Span(stream=stream, name=name, start=start, end=end, category=category))

    # -- queries ---------------------------------------------------------------

    def streams(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.stream, None)
        return list(seen)

    def spans_on(self, stream: str) -> list[Span]:
        return [s for s in self.spans if s.stream == stream]

    def by_category(self, category: KernelCategory) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def makespan(self) -> float:
        """End time of the last span (start of time is 0)."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans)

    def busy_time(self, stream: str) -> float:
        """Total busy time of a stream (spans on one stream never overlap)."""
        return sum(s.duration for s in self.spans_on(stream))

    def overlapped_time(self, stream_a: str, stream_b: str) -> float:
        """Total wall-clock time during which both streams are busy."""
        total = 0.0
        for a in self.spans_on(stream_a):
            for b in self.spans_on(stream_b):
                total += a.overlaps(b)
        return total

    def category_time(self, category: KernelCategory) -> float:
        return sum(s.duration for s in self.by_category(category))

    def head_tail_overlap(self, compute_stream: str, comm_stream: str) -> tuple[float, float, float]:
        """Split the makespan into (head, overlapped, tail) as in Fig. 8.

        Head is the time before the first communication span starts; tail is
        the time after the last compute span ends; overlapped is the busy-busy
        intersection of the two streams.
        """
        comm = self.spans_on(comm_stream)
        compute = self.spans_on(compute_stream)
        if not comm or not compute:
            return self.makespan(), 0.0, 0.0
        head = min(s.start for s in comm)
        tail = max(0.0, self.makespan() - max(s.end for s in compute))
        return head, self.overlapped_time(compute_stream, comm_stream), tail

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
