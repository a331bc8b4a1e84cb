"""The ambient observability session and its module-level accessors.

Instrumented library code never threads a tracer through seven subsystems'
call signatures; it calls the module-level helpers::

    from repro import obs

    with obs.span("plan_store.build", shape=str(problem.shape)):
        ...
    obs.counter("plan_store.hits").inc()

By default no session is active and every helper returns a shared null
object, so the disabled cost of an instrumented hot path is a global read
plus a no-op call.  ``with obs.observe() as session:`` activates a session
(tracer + metrics registry + flight recorder on one clock); afterwards
``session.snapshot()`` freezes everything into a :class:`ProfileSnapshot`
-- the payload behind ``--profile`` / ``--profile-json`` and the
``observability`` section of the API reports.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.obs.clock import SystemClock
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import NULL_SPAN, Tracer

__all__ = [
    "ObsSession",
    "ProfileSnapshot",
    "PROFILE_VERSION",
    "observe",
    "enabled",
    "current",
    "span",
    "event",
    "counter",
    "gauge",
    "histogram",
    "now",
    "dump_flight",
]

PROFILE_VERSION = 1

#: The process-wide ambient session; ``None`` means observability is off.
_SESSION: "ObsSession | None" = None

#: Fallback clock of :func:`now` outside a session (deadlines, heartbeats).
_SYSTEM_CLOCK = SystemClock()


class ProfileSnapshot:
    """One frozen profile: span trees, phase rollup, metrics, recorder stats."""

    def __init__(self, payload: dict) -> None:
        self.payload = payload

    def to_dict(self) -> dict:
        return self.payload

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> Path:
        from repro.atomic import atomic_write_text

        return atomic_write_text(path, self.to_json())

    @property
    def command(self) -> str | None:
        return self.payload["command"]

    @property
    def total_s(self) -> float | None:
        return self.payload["total_s"]

    @property
    def phases(self) -> list[dict]:
        return self.payload["phases"]

    @property
    def spans(self) -> list[dict]:
        return self.payload["spans"]

    @property
    def metrics(self) -> dict:
        return self.payload["metrics"]

    def phase_table(self) -> str:
        """The per-phase wall-time table ``--profile`` prints."""
        total = self.total_s
        rows = []
        for phase in self.phases:
            share = phase["total_s"] / total if total else 0.0
            rows.append(
                [phase["name"], phase["count"], f"{phase['total_s']:.6f}", f"{share * 100:.1f}%"]
            )
        title = f"{self.command or 'profile'}: phases"
        if total is not None:
            title += f" (total {total:.6f} s)"
        return format_table(["phase", "count", "total (s)", "share"], rows, title=title)

    def metrics_table(self) -> str:
        """Counters, gauges and histogram summaries as one table."""
        rows = []
        for key, value in self.metrics["counters"].items():
            rows.append([key, "counter", str(value)])
        for key, value in self.metrics["gauges"].items():
            rows.append([key, "gauge", f"{value:g}"])
        for key, summary in self.metrics["histograms"].items():
            if summary["count"]:
                detail = (
                    f"count={summary['count']} mean={summary['mean']:.6g} "
                    f"p50={summary['p50']:.6g} p99={summary['p99']:.6g}"
                )
            else:
                detail = "count=0"
            rows.append([key, "histogram", detail])
        return format_table(["metric", "type", "value"], rows, title="metrics")


def _aggregate_phases(nodes: list, total: float | None) -> list[dict]:
    """Roll sibling spans up by name, first-appearance order, plus untracked."""
    order: list[str] = []
    agg: dict[str, dict] = {}
    for node in nodes:
        entry = agg.get(node.name)
        if entry is None:
            entry = agg[node.name] = {"name": node.name, "count": 0, "total_s": 0.0}
            order.append(node.name)
        entry["count"] += 1
        entry["total_s"] += node.duration
    phases = [agg[name] for name in order]
    if total is not None:
        tracked = sum(entry["total_s"] for entry in phases)
        phases.append(
            {"name": "(untracked)", "count": 0, "total_s": max(0.0, total - tracked)}
        )
    return phases


class ObsSession:
    """One observability session: tracer, metrics, flight recorder, clock."""

    def __init__(self, clock=None) -> None:
        self.clock = clock or SystemClock()
        self.recorder = FlightRecorder()
        self.tracer = Tracer(self.clock, recorder=self.recorder)
        self.metrics = MetricsRegistry()

    def snapshot(self, command: str | None = None) -> ProfileSnapshot:
        """Freeze the session into a :class:`ProfileSnapshot`.

        With a single root span (the CLI's ``repro <command>`` wrapper) the
        phases are that root's direct children and ``total_s`` its duration,
        closed by an ``(untracked)`` row so the rows sum to the total exactly;
        with several roots, the roots themselves are the phases.
        """
        roots = self.tracer.roots
        if len(roots) == 1:
            root = roots[0]
            total = root.duration
            phases = _aggregate_phases(root.children, total)
            command = command or root.name
        else:
            total = sum(node.duration for node in roots) if roots else None
            phases = _aggregate_phases(roots, None)
        return ProfileSnapshot(
            {
                "version": PROFILE_VERSION,
                "command": command,
                "total_s": total,
                "phases": phases,
                "spans": self.tracer.root_dicts(),
                "metrics": self.metrics.snapshot(),
                "flight_recorder": {
                    "capacity": self.recorder.capacity,
                    "recorded": self.recorder.recorded,
                },
            }
        )

    def dump_flight(self, path: str | Path) -> Path:
        """Dump the flight-recorder ring buffer as a JSONL artifact."""
        return self.recorder.dump_jsonl(path)


@contextmanager
def observe(clock=None):
    """Activate an observability session for the duration of the block.

    Re-entrant: an inner ``observe()`` joins the active session instead of
    replacing it (so ``api.plan(profile=True)`` composes with a CLI that
    already opened one).
    """
    global _SESSION
    if _SESSION is not None:
        yield _SESSION
        return
    session = ObsSession(clock=clock)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None


def enabled() -> bool:
    return _SESSION is not None


def current() -> ObsSession | None:
    return _SESSION


def span(name: str, **attrs):
    """A context-manager span on the active tracer (no-op when disabled)."""
    session = _SESSION
    if session is None:
        return NULL_SPAN
    return session.tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record a point-in-time event into the flight recorder."""
    session = _SESSION
    if session is not None:
        session.recorder.record_event(name, session.clock.now(), attrs)


def counter(name: str, **labels):
    session = _SESSION
    if session is None:
        return NULL_COUNTER
    return session.metrics.counter(name, **labels)


def gauge(name: str, **labels):
    session = _SESSION
    if session is None:
        return NULL_GAUGE
    return session.metrics.gauge(name, **labels)


def histogram(name: str, **labels):
    session = _SESSION
    if session is None:
        return NULL_HISTOGRAM
    return session.metrics.histogram(name, **labels)


def now() -> float:
    """The ambient clock reading (the session's clock, else the system's)."""
    session = _SESSION
    return (session.clock if session is not None else _SYSTEM_CLOCK).now()


def dump_flight(path: str | Path) -> Path | None:
    """Dump the active session's flight recorder; ``None`` when disabled."""
    session = _SESSION
    if session is None:
        return None
    return session.dump_flight(path)
