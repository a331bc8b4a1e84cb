"""Timeline traces: spans on named streams.

A trace is the simulated analogue of an Nsight timeline: every kernel
execution becomes a :class:`Span` on a stream.  :class:`Trace` keeps its
spans as five parallel columns in recording order (stream, name, start, end,
category), so a producer appends a whole stream with one
:meth:`Trace.extend` and ``Span`` objects are built only when
:attr:`Trace.spans` is read.  Readers work stream by stream -- an ASCII
rendering makes it easy to eyeball a plan from a terminal or a test failure
message, and :mod:`repro.sim.trace_export` writes one Chrome-trace thread
per stream.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter, lt

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
    """Spans in recording order, stored as five parallel columns."""

    _streams: list[str] = field(init=False, default_factory=list)
    _names: list[str] = field(init=False, default_factory=list)
    _starts: list[float] = field(init=False, default_factory=list)
    _ends: list[float] = field(init=False, default_factory=list)
    _categories: list[KernelCategory] = field(init=False, default_factory=list)

    def record(
        self,
        stream: str,
        name: str,
        start: float,
        end: float,
        category: KernelCategory = KernelCategory.OTHER,
    ) -> None:
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        self._streams.append(stream)
        self._names.append(name)
        self._starts.append(start)
        self._ends.append(end)
        self._categories.append(category)

    def extend(
        self,
        stream: str,
        names: Sequence[str],
        starts: Sequence[float],
        ends: Sequence[float],
        categories: Sequence[KernelCategory],
    ) -> None:
        """Append spans on one stream, given as equal-length columns.

        Nothing is appended when any span ends before it starts.
        """
        if not len(names) == len(starts) == len(ends) == len(categories):
            raise ValueError("names, starts, ends and categories must have one length")
        if any(map(lt, ends, starts)):
            name = next(name for name, start, end in zip(names, starts, ends) if end < start)
            raise ValueError(f"span {name!r} ends before it starts")
        self._streams.extend([stream] * len(names))
        self._names.extend(names)
        self._starts.extend(starts)
        self._ends.extend(ends)
        self._categories.extend(categories)

    # -- queries ---------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """The spans in recording order, built on each read."""
        return list(map(Span, self._streams, self._names, self._starts, self._ends, self._categories))

    def rows(self) -> Iterator[tuple[str, str, float, float, KernelCategory]]:
        """``(stream, name, start, end, category)`` per span, in recording order."""
        return zip(self._streams, self._names, self._starts, self._ends, self._categories)

    def streams(self) -> list[str]:
        """Stream names in order of first appearance."""
        return list(dict.fromkeys(self._streams))

    def makespan(self) -> float:
        """End time of the last span (start of time is 0)."""
        return max(self._ends, default=0.0)

    # -- rendering --------------------------------------------------------------

    def render_ascii(self, width: int = 80) -> str:
        """Render the trace as one text row per stream."""
        makespan = self.makespan()
        if makespan <= 0 or not self._ends:
            return "(empty trace)"
        rows = {stream: [" "] * width for stream in self.streams()}
        for stream, name, start, end in zip(self._streams, self._names, self._starts, self._ends):
            row = rows[stream]
            lo = int(start / makespan * (width - 1))
            hi = max(lo + 1, int(end / makespan * (width - 1)) + 1)
            mark = name[:1].upper() or "#"
            for i in range(lo, min(hi, width)):
                row[i] = mark
        lines = [f"{stream:>12} |{''.join(row)}|" for stream, row in rows.items()]
        lines.append(f"{'':>12} 0{'':<{max(0, width - 12)}}{makespan * 1e3:.3f} ms")
        return "\n".join(lines)

    def validate_stream_order(self) -> None:
        """Raise if spans on any single stream overlap each other."""
        by_stream: dict[str, list[tuple[float, float, str]]] = {
            stream: [] for stream in self.streams()
        }
        for stream, span in zip(self._streams, zip(self._starts, self._ends, self._names)):
            by_stream[stream].append(span)
        for stream, spans in by_stream.items():
            spans.sort(key=itemgetter(0))
            for (_, earlier_end, earlier), (later_start, _, later) in zip(spans, spans[1:]):
                if later_start < earlier_end - 1e-12:
                    raise ValueError(
                        f"stream {stream!r}: span {later!r} starts before "
                        f"{earlier!r} finishes"
                    )
