"""Flight recorder: a ring buffer of recent spans and events.

Every closed span and every ``obs.event(...)`` lands here (newest evicting
oldest past :data:`FLIGHT_CAPACITY`), so when something goes wrong -- a sweep job is
quarantined, a CLI run crashes under ``--profile`` -- the recent history can
be dumped as a JSONL artifact without having recorded everything.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

#: Entries the ring buffer keeps; older ones are evicted.
FLIGHT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring buffer of span/event dicts, dumpable as JSONL."""

    def __init__(self) -> None:
        self.capacity = FLIGHT_CAPACITY
        self._entries: deque[dict] = deque(maxlen=self.capacity)
        self.recorded = 0  # total entries ever recorded (kept past eviction)

    def __len__(self) -> int:
        return len(self._entries)

    def record_span(self, node) -> None:
        self.recorded += 1
        self._entries.append(
            {
                "kind": "span",
                "name": node.name,
                "start_s": node.start,
                "duration_s": node.duration,
                "attrs": node.attrs,
            }
        )

    def record_event(self, name: str, time_s: float, attrs: dict | None = None) -> None:
        self.recorded += 1
        self._entries.append(
            {"kind": "event", "name": name, "time_s": time_s, "attrs": attrs or {}}
        )

    def entries(self) -> list[dict]:
        return list(self._entries)

    def dump_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per line (oldest first) and return the path."""
        import json

        from repro.atomic import atomic_write_text

        lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in self._entries)
        return atomic_write_text(path, lines)
