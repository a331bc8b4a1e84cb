"""The serving loop with every iteration routed through the event engine.

:class:`repro.serve.simulator.ServingSimulator` commits an iteration inline
whenever it lands strictly before the engine's next event, and collapses
silent steady-decode runs in bulk.  :func:`serve_reference` runs the same,
unchanged simulator on an engine that always reports an event due at
``-inf``: no iteration can land before it, so every iteration is scheduled
as a ``finish_iteration`` event and committed from the heap, one at a time.
"""

from __future__ import annotations

import math
from unittest import mock

from repro.serve.arrivals import Request
from repro.serve.simulator import ServingResult, ServingSimulator
from repro.sim.engine import EventEngine


class _PerIterationEngine(EventEngine):
    """An engine whose next event always comes before any iteration lands."""

    def next_event_time(self) -> float:
        return -math.inf


def serve_reference(simulator: ServingSimulator, requests: list[Request]) -> ServingResult:
    """``simulator.run(requests)`` with one engine event per iteration."""
    with mock.patch("repro.serve.simulator.EventEngine", _PerIterationEngine):
        return simulator.run(requests)
