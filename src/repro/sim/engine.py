"""A minimal discrete-event simulation engine.

Events are ``(time, callback)`` pairs ordered by time (FIFO among equal
times): the heap holds ``(time, sequence, event)`` tuples, so ordering is a
plain tuple comparison that never reaches the event.  Callbacks may schedule
further events.  The engine is deliberately tiny -- ordered execution and a
clock -- and is the clock of the serving loop (:mod:`repro.serve.simulator`),
which also peeks at the next event time to commit work inline between events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class _ScheduledEvent:
    callback: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = field(init=False, default=False)


class EventEngine:
    """Priority-queue driven event loop with a simulated clock."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, time: float, callback: Callable[..., Any], *args: Any) -> _ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule event at {time} before now ({self._now})")
        event = _ScheduledEvent(callback=callback, args=args)
        heapq.heappush(self._queue, (time, next(self._counter), event))
        return event

    def schedule_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> _ScheduledEvent:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self._now + delay, callback, *args)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a previously scheduled event (it will be skipped).

        Cancelling an already-cancelled or already-executed event is a no-op.
        """
        event.cancelled = True

    def next_event_time(self) -> float | None:
        """Time of the next live event, or None when the queue is drained.

        Cancelled heads are popped on the way (they are dead weight anyway),
        so the query is amortized O(1).
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def advance_to(self, time: float) -> None:
        """Manually advance the clock to ``time`` (monotonic).

        Fast paths that execute work inline between events use this to keep
        the simulated clock honest without paying a schedule/pop round trip
        per step.  Rewinding is rejected.
        """
        if time < self._now:
            raise ValueError(f"cannot advance the clock to {time} before now ({self._now})")
        self._now = time

    def run(self) -> float:
        """Run events until the queue drains; return the final simulation time."""
        queue = self._queue
        while queue:
            time, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self._now = max(self._now, time)
            event.callback(*event.args)
            self._processed += 1
        return self._now
