"""Element-wise kernels and the fused-reorder overhead model.

FlashOverlap hides the cost of its two reorderings by fusing them into kernels
that already touch the data: the pre-communication reorder goes into the GEMM
epilogue, and the post-communication reorder goes into the next element-wise
kernel (RMSNorm in the paper's Table 5 study).  This module provides

* a functional NumPy RMSNorm, the element-wise operator the ReduceScatter
  pipeline fuses its post-communication reorder into,
* a duration model for element-wise kernels (memory-bound roofline),
* :class:`ReorderOverheadModel`, which estimates the relative latency increase
  of fusing a reorder at tile / sub-tile / sub-token granularity, following
  the paper's analysis: the overhead comes from the mapping-table traffic and
  from cache-line under-utilisation caused by the irregular access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.device import GPUSpec
from repro.gpu.gemm import DTYPE_BYTES, GemmShape, GemmTileConfig

#: Granularities at which the post-communication reorder operates.
REORDER_UNITS = ("tile", "subtile", "subtoken")

#: DRAM burst / cache-line size used by the irregular-access penalty model.
_CACHE_LINE_BYTES = 128

#: Index width of a mapping-table entry.
_INDEX_BYTES = 4

#: HBM traffic per output element of an element-wise kernel: RMSNorm reads and
#: writes each FP16 element once (plus a negligible weight vector).
_ELEMENTWISE_BYTES_PER_ELEMENT = 2.0 * DTYPE_BYTES

#: Base irregular-access penalty for an element-wise (bandwidth-bound) kernel.
_ELEMENTWISE_BASE_PENALTY = 0.055

#: Reference HBM bandwidth used to scale the penalty across devices.
_REFERENCE_BANDWIDTH_GBPS = 1935.0


# -- functional element-wise operators ---------------------------------------


def rmsnorm(x: np.ndarray) -> np.ndarray:
    """Root-mean-square normalisation over the last axis (unit weight, eps 1e-6)."""
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)


# -- duration model -----------------------------------------------------------


@dataclass(frozen=True)
class ElementwiseKernelModel:
    """Memory-bound duration model of an element-wise kernel (one FP16 read
    and one write per output element)."""

    device: GPUSpec

    def duration(self, elements: int, include_launch: bool = True) -> float:
        """Kernel duration for ``elements`` output elements (seconds)."""
        if elements < 0:
            raise ValueError("elements must be non-negative")
        body = elements * _ELEMENTWISE_BYTES_PER_ELEMENT / self.device.memory_bytes_per_second
        if include_launch:
            body += self.device.kernel_launch_seconds
        return body


# -- reorder overhead model ----------------------------------------------------


@dataclass(frozen=True)
class ReorderOverheadModel:
    """Relative overhead of fusing a reorder into an existing kernel.

    Two effects are modeled, following Sec. 6.6 of the paper:

    * **mapping-table traffic** -- one index per reordered unit must be read;
      relative to the payload this is one index per contiguous row segment
      the unit contributes;
    * **irregular access** -- gathering units that are no longer adjacent in
      memory under-utilises cache lines; the penalty grows as the contiguous
      span of a unit row shrinks relative to a cache line, and shrinks with
      higher HBM bandwidth headroom of the device.

    The constants are calibrated so that an A800 sees roughly 7.5%/7.9%/8.5%
    extra latency for tile/sub-tile/sub-token reorders fused into RMSNorm and
    well under 1% fused into the GEMM epilogue, matching Table 5.
    """

    device: GPUSpec

    def _bandwidth_scale(self) -> float:
        """Devices with less HBM bandwidth feel irregular access more."""
        return (_REFERENCE_BANDWIDTH_GBPS / self.device.hbm_bandwidth_gbps) ** 0.25

    def table_traffic_ratio(self, unit: str, config: GemmTileConfig, n_gpus: int) -> float:
        """Mapping-table bytes per payload byte."""
        self._check_unit(unit)
        if unit == "tile":
            unit_rows = config.tile_m
            units_per_tile = 1
        elif unit == "subtile":
            unit_rows = max(1, config.tile_m // max(1, n_gpus))
            units_per_tile = max(1, n_gpus)
        else:  # subtoken
            unit_rows = 1
            units_per_tile = config.tile_m
        payload = config.tile_m * config.tile_n * DTYPE_BYTES
        # The fused kernel re-reads the index for every row segment it emits.
        per_row_reads = unit_rows * units_per_tile * _INDEX_BYTES
        return per_row_reads / payload

    def irregularity_penalty(self, unit: str, config: GemmTileConfig, n_gpus: int) -> float:
        """Cache-line under-utilisation penalty (relative)."""
        self._check_unit(unit)
        row_bytes = config.tile_n * DTYPE_BYTES
        base = _ELEMENTWISE_BASE_PENALTY * self._bandwidth_scale()
        # Finer units add a small extra penalty per indirection level.
        extra = {"tile": 0.0, "subtile": 0.004, "subtoken": 0.008}[unit]
        line_term = _CACHE_LINE_BYTES / max(row_bytes, _CACHE_LINE_BYTES) * 0.01
        return base + extra + line_term

    def elementwise_overhead(self, unit: str, config: GemmTileConfig, n_gpus: int,
                             shape: GemmShape | None = None) -> float:
        """Relative extra latency of the post-reorder fused into an
        element-wise kernel (e.g. RMSNorm)."""
        ratio = self.table_traffic_ratio(unit, config, n_gpus)
        penalty = self.irregularity_penalty(unit, config, n_gpus)
        small_matrix_term = 0.0
        if shape is not None:
            # Small matrices amplify the overhead (poorer cache-line reuse).
            elements = shape.output_elements
            small_matrix_term = 0.02 * (1024 * 1024) / (elements + 1024 * 1024)
        return ratio + penalty + small_matrix_term

    def gemm_epilogue_overhead(self, unit: str, config: GemmTileConfig, n_gpus: int,
                               shape: GemmShape) -> float:
        """Relative extra latency of the pre-reorder fused into the GEMM.

        The GEMM main loop dominates; the reorder only perturbs the epilogue
        store, so the element-wise overhead is scaled down by the ratio of
        output traffic to total GEMM work (which shrinks as ``K`` grows).
        """
        elementwise = self.elementwise_overhead(unit, config, n_gpus, shape)
        output_bytes = shape.output_bytes(DTYPE_BYTES)
        total_bytes = shape.total_bytes(DTYPE_BYTES)
        compute_amplification = max(1.0, shape.k / 256.0)
        store_share = output_bytes / total_bytes / compute_amplification
        scatter_factor = 1.0 if unit == "tile" else 1.9
        return elementwise * store_share * scatter_factor

    @staticmethod
    def _check_unit(unit: str) -> None:
        if unit not in REORDER_UNITS:
            raise ValueError(f"unknown reorder unit {unit!r}; expected {REORDER_UNITS}")
