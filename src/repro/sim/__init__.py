"""Discrete-event / timeline simulation substrate.

The overlap executor needs to know *when things happen* on a device with two
CUDA streams: the computation stream running the GEMM kernel, and the
communication stream running signal-wait kernels followed by NCCL kernels.
This package provides:

* :mod:`repro.sim.engine` -- a small discrete-event engine (heap of timed
  callbacks) that clocks the serving loop,
* :mod:`repro.sim.trace` -- timeline traces made of spans, with overlap /
  busy-time queries and an ASCII rendering for quick inspection,
* :mod:`repro.sim.timeline` -- a stream-ordered timeline builder that models
  in-order execution per stream plus cross-stream dependencies (signals).
"""

from repro.sim.engine import EventEngine
from repro.sim.trace import Span, Trace
from repro.sim.timeline import StreamTimeline

__all__ = [
    "EventEngine",
    "Span",
    "Trace",
    "StreamTimeline",
]
