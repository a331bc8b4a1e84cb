"""Unified observability layer: spans, metrics, flight recorder, profiles.

Three pieces on one injectable clock:

* a span-based tracer (:mod:`repro.obs.tracer`) -- nested context-manager
  spans whose trees are byte-stable under the deterministic
  :class:`~repro.obs.clock.FakeClock`;
* a metrics registry (:mod:`repro.obs.metrics`) -- labelled counters /
  gauges / histograms with a JSON-stable snapshot;
* a flight recorder (:mod:`repro.obs.recorder`) -- a ring buffer of recent
  spans/events dumped as JSONL when a sweep job is quarantined or a CLI run
  crashes.

The default state is *off*: the module-level accessors (``obs.span``,
``obs.counter``, ...) return shared null objects until a session is opened
with :func:`~repro.obs.session.observe`, so instrumentation on hot paths
costs nothing when nobody is profiling.  ``--profile`` on every CLI
subcommand (and ``profile=True`` on the :mod:`repro.api` functions) opens a
session, wraps the run in a root span and renders the
:class:`~repro.obs.session.ProfileSnapshot` phase table.
"""

from repro.obs.schema import validate_profile
from repro.obs.session import (
    counter,
    dump_flight,
    enabled,
    event,
    gauge,
    histogram,
    now,
    observe,
    span,
)

__all__ = [
    "counter",
    "dump_flight",
    "enabled",
    "event",
    "gauge",
    "histogram",
    "now",
    "observe",
    "span",
    "validate_profile",
]
