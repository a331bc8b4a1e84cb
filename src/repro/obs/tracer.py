"""Span-based tracer: nested context-manager spans on an injectable clock.

A :class:`Tracer` builds a forest of :class:`SpanNode` -- one tree per
top-level ``with tracer.span(...)`` block, children nested by ``with``
scoping.  Durations come from whatever clock the tracer was given, so tests
drive it with :class:`~repro.obs.clock.FakeClock` and assert the resulting
tree bytes.  When observability is disabled the module-level helpers in
:mod:`repro.obs.session` return the shared :data:`NULL_SPAN` instead, whose
``__enter__``/``__exit__`` do nothing -- instrumented hot paths cost two
no-op calls.
"""

from __future__ import annotations


class SpanNode:
    """One span of the tree: name, start/end time, attributes, children."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float, attrs: dict | None = None) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs or {}
        self.children: list[SpanNode] = []

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def note(self, **attrs) -> None:
        """Attach attributes discovered while the span is running."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "attrs": self.attrs,
            "children": [child.to_dict() for child in self.children],
        }


class _ActiveSpan:
    """The context manager one ``tracer.span(...)`` call returns."""

    __slots__ = ("_tracer", "_name", "_attrs", "_node")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._node: SpanNode | None = None

    def __enter__(self) -> SpanNode:
        self._node = self._tracer._open(self._name, self._attrs)
        return self._node

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._node, failed=exc_type is not None)
        return False


class _NullSpan:
    """Shared no-op span: the disabled path of every ``obs.span(...)`` call."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()

#: Runaway guard: past this many spans a tracer's new spans become no-ops, so a
#: pathological caller (a million-job sweep under ``--profile``) degrades to a
#: truncated tree instead of unbounded memory.
MAX_NODES = 100_000


class Tracer:
    """Builds span trees (at most :data:`MAX_NODES`); one instance per observability session."""

    def __init__(self, clock, recorder=None) -> None:
        self.clock = clock
        self.recorder = recorder
        self.roots: list[SpanNode] = []
        self._stack: list[SpanNode] = []
        self._nodes = 0

    def span(self, name: str, **attrs):
        if self._nodes >= MAX_NODES:
            return NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def _open(self, name: str, attrs: dict) -> SpanNode:
        node = SpanNode(name, self.clock.now(), dict(attrs))
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        self._nodes += 1
        return node

    def _close(self, node: SpanNode, failed: bool = False) -> None:
        node.end = self.clock.now()
        if failed:
            node.attrs["failed"] = True
        if self._stack and self._stack[-1] is node:
            self._stack.pop()
        elif node in self._stack:  # pragma: no cover - defensive (mis-nested exit)
            while self._stack and self._stack.pop() is not node:
                pass
        if self.recorder is not None:
            self.recorder.record_span(node)

    def root_dicts(self) -> list[dict]:
        return [root.to_dict() for root in self.roots]
