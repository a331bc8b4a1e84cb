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

from repro.gpu.device import (
    A100,
    A800,
    ASCEND_910B,
    H100,
    RTX_3090,
    RTX_4090,
    GPUSpec,
    known_devices,
)
from repro.gpu.gemm import GemmKernelModel, GemmShape, GemmTileConfig
from repro.gpu.swizzle import execution_order, swizzled_order, unswizzled_order
from repro.gpu.epilogue import (
    ElementwiseKernelModel,
    ReorderOverheadModel,
    rmsnorm,
)
from repro.gpu.kernels import KernelCategory

__all__ = [
    "GPUSpec",
    "RTX_4090",
    "RTX_3090",
    "A800",
    "A100",
    "H100",
    "ASCEND_910B",
    "known_devices",
    "GemmShape",
    "GemmTileConfig",
    "GemmKernelModel",
    "execution_order",
    "swizzled_order",
    "unswizzled_order",
    "ElementwiseKernelModel",
    "ReorderOverheadModel",
    "rmsnorm",
    "KernelCategory",
]
