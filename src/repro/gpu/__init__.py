"""GPU execution-model substrate.

FlashOverlap's behaviour is driven by *when GEMM tiles finish* (the wave
pattern), by the total GEMM duration, and by the cost of the epilogue /
element-wise kernels that the reorderings are fused into.  This package models
all of that analytically for a configurable device:

* :mod:`repro.gpu.device` -- device specifications (SM count, peak FP16
  throughput, HBM bandwidth) with presets for the GPUs/NPUs used in the paper,
* :mod:`repro.gpu.swizzle` -- the block-swizzling tile execution order,
* :mod:`repro.gpu.gemm` -- tile grid, wave schedule and roofline duration of a
  GEMM kernel, including per-tile completion times (Fig. 3),
* :mod:`repro.gpu.epilogue` -- functional element-wise kernels (RMSNorm, bias,
  activations) and the memory-traffic overhead model of the fused reorderings
  (Table 5),
* :mod:`repro.gpu.kernels` -- the kernel categories the simulator's traces
  are tagged with.
"""

from repro.gpu.device import A800, RTX_4090
from repro.gpu.gemm import GemmShape, GemmTileConfig

__all__ = [
    "A800",
    "RTX_4090",
    "GemmShape",
    "GemmTileConfig",
]
