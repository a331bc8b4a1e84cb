"""Discrete-event / timeline simulation substrate.

The overlap executor records *when things happen* on a device with two CUDA
streams -- the computation stream running the GEMM kernel, and the
communication stream running NCCL kernels released by the group signals --
as spans of a trace.  This package provides:

* :mod:`repro.sim.engine` -- a small discrete-event engine (heap of timed
  callbacks) that clocks the serving loop,
* :mod:`repro.sim.trace` -- timeline traces: spans on named streams, stored
  as columns, with an ASCII rendering for quick inspection (one row per
  stream).
"""
