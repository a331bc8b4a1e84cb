"""A minimal discrete-event simulation engine.

Events are ``(time, callback)`` pairs ordered by time (FIFO among equal
times).  Callbacks may schedule further events.  The engine is deliberately
tiny -- ordered execution and a clock -- and is the clock of the serving
loop (:mod:`repro.serve.simulator`), which also peeks at the next event time
to commit work inline between events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    executed: bool = field(compare=False, default=False)


class EventEngine:
    """Priority-queue driven event loop with a simulated clock."""

    def __init__(self) -> None:
        self._queue: list[_ScheduledEvent] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._pending = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Maintained as a counter updated on schedule/cancel/execute, so the
        query is O(1) instead of scanning the heap.
        """
        return self._pending

    def schedule(self, time: float, callback: Callable[..., Any], *args: Any) -> _ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule event at {time} before now ({self._now})")
        event = _ScheduledEvent(time=time, sequence=next(self._counter), callback=callback, args=args)
        heapq.heappush(self._queue, event)
        self._pending += 1
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
        if event.cancelled or event.executed:
            return
        event.cancelled = True
        self._pending -= 1

    def next_event_time(self) -> float | None:
        """Time of the next live event, or None when the queue is drained.

        Cancelled heads are popped on the way (they are dead weight anyway),
        so the query is amortized O(1).
        """
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def advance_to(self, time: float) -> None:
        """Manually advance the clock to ``time`` (monotonic).

        Fast paths that execute work inline between events use this to keep
        the simulated clock honest without paying a schedule/pop round trip
        per step.  Rewinding is rejected.
        """
        if time < self._now:
            raise ValueError(f"cannot advance the clock to {time} before now ({self._now})")
        self._now = time

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the queue drains (or a limit is reached).

        With ``until=T`` the clock always lands on ``min(T, next-event
        time)`` -- whether events executed, none were due, or the loop
        stopped on an event scheduled past ``T`` (``max_events`` exhaustion
        leaves the clock at the last executed event instead: the caller
        limited execution, not time).  Returns the final simulation time.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return self._now
            event = self._queue[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            if event.cancelled:
                continue
            event.executed = True
            self._pending -= 1
            self._now = max(self._now, event.time)
            event.callback(*event.args)
            self._processed += 1
            executed += 1
        if until is not None:
            upcoming = self.next_event_time()
            self._now = max(self._now, until if upcoming is None else min(until, upcoming))
        return self._now

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        for event in self._queue:
            # Mark dropped events so a cancel() through a stale handle cannot
            # decrement the pending counter of the post-reset engine.
            event.cancelled = True
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
        self._pending = 0
