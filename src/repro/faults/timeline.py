"""Piecewise-constant speed timelines for straggler modelling.

A :class:`SpeedTimeline` maps simulation time to a *speed factor*: 1.0 is
nominal and values below 1.0 model a straggling resource (1/slowdown).
Replica outages are not speeds: they are the crash/recover events of
:class:`~repro.faults.injector.FaultInjector`.  The one query the serving
loop needs is :meth:`SpeedTimeline.finish_time` -- when a task of ``work``
fault-free seconds finishes if it starts at ``start`` and progresses at the
timeline's rate (work integrates across segment boundaries).

Timelines are pure, deterministic functions of their windows, so the same
fault plan replays bit-identically.  The fault-free timeline (no windows)
returns exactly ``start + work`` -- not a numerically-equal sum -- which is
what lets an empty :class:`~repro.faults.plan.FaultPlan` degenerate to the
fault-free simulation bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SpeedTimeline", "SpeedWindow"]


@dataclass(frozen=True)
class SpeedWindow:
    """One interval during which a multiplicative speed factor applies."""

    start: float
    end: float
    speed: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"window start {self.start} must precede end {self.end}")
        if not self.speed > 0:
            raise ValueError(f"speed must be positive, got {self.speed}")


class SpeedTimeline:
    """Piecewise-constant speed factor over time (1.0 outside all windows).

    Overlapping windows compose multiplicatively: two concurrent 2x
    stragglers run the resource at 0.25 speed.
    """

    def __init__(self, windows: list[SpeedWindow] | None = None) -> None:
        self.windows = sorted(windows or [], key=lambda w: (w.start, w.end))
        # Precompute disjoint segments with their composed speed.
        boundaries = sorted({t for w in self.windows for t in (w.start, w.end)})
        self._segments: list[tuple[float, float, float]] = []
        for left, right in zip(boundaries, boundaries[1:]):
            speed = 1.0
            for window in self.windows:
                if window.start <= left and right <= window.end:
                    speed *= window.speed
            if speed != 1.0:
                self._segments.append((left, right, speed))

    @property
    def is_nominal(self) -> bool:
        """True when the timeline never deviates from speed 1.0."""
        return not self._segments

    def finish_time(self, start: float, work: float) -> float:
        """When ``work`` fault-free seconds of work finish if started at ``start``.

        Work progresses at the composed speed factor per wall-clock second.
        """
        if work < 0:
            raise ValueError("work must be non-negative")
        if self.is_nominal:
            return start + work
        now = start
        remaining = work
        for left, right, speed in self._segments:
            if right <= now:
                continue
            if remaining <= 0:
                break
            # Nominal-speed gap before this segment.
            if now < left:
                gap = left - now
                if remaining <= gap:
                    return now + remaining
                now = left
                remaining -= gap
            capacity = (right - now) * speed
            if remaining <= capacity:
                return now + remaining / speed
            now = right
            remaining -= capacity
        # Past the last segment the speed is nominal again.
        return now + remaining
