"""Analytical GEMM kernel model: tiles, waves, durations, completion times.

The model captures exactly the properties the overlap design depends on:

* the tile grid of the output and the (swizzled) execution order,
* the number of waves ``T = ceil(num_tiles / available_SMs)``,
* the total kernel duration (roofline: compute-bound vs memory-bound),
* the completion time of every wave and tile (Fig. 3 wave pattern),
* how the duration stretches when communication reserves part of the SMs.

It deliberately ignores micro-architectural detail (register pressure, shared
memory bank conflicts, ...) that does not change the overlap behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.device import GPUSpec
from repro.gpu.swizzle import execution_order, launch_positions, wave_partition
from repro.tensor.layout import TileLayout

#: Bytes per element for the FP16/BF16 data type used throughout the paper.
DTYPE_BYTES = 2

#: Accumulation length at which a GEMM reaches half of its asymptotic
#: efficiency (models prologue/epilogue amortisation along ``K``).
_K_HALF_EFFICIENCY = 384.0


@dataclass(frozen=True)
class GemmShape:
    """Problem size of ``A[M, K] @ B[K, N] = C[M, N]``."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {self}")

    @property
    def flops(self) -> float:
        """Multiply-accumulate FLOP count (2 * M * N * K)."""
        return 2.0 * self.m * self.n * self.k

    @property
    def output_elements(self) -> int:
        return self.m * self.n

    def output_bytes(self, dtype_bytes: int = DTYPE_BYTES) -> int:
        return self.output_elements * dtype_bytes

    def input_bytes(self, dtype_bytes: int = DTYPE_BYTES) -> int:
        return (self.m * self.k + self.k * self.n) * dtype_bytes

    def total_bytes(self, dtype_bytes: int = DTYPE_BYTES) -> int:
        """Minimum HBM traffic: read A and B once, write C once."""
        return self.input_bytes(dtype_bytes) + self.output_bytes(dtype_bytes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"GEMM(M={self.m}, N={self.n}, K={self.k})"


@dataclass(frozen=True)
class GemmTileConfig:
    """Tiling / swizzling configuration of the GEMM kernel."""

    tile_m: int = 128
    tile_n: int = 128
    tile_k: int = 32
    swizzle_size: int = 3

    def __post_init__(self) -> None:
        if min(self.tile_m, self.tile_n, self.tile_k) <= 0:
            raise ValueError("tile dims must be positive")
        if self.swizzle_size < 0:
            raise ValueError("swizzle_size must be >= 0")

    @classmethod
    def default_for(cls, shape: GemmShape, device: GPUSpec) -> "GemmTileConfig":
        """Pick a reasonable tile size for a shape/device pair.

        Mirrors what the CUTLASS profiler would do at a coarse level: prefer
        128x128 tiles; fall back to 128x64 / 64x64 tiles when the output is too
        small to fill the device with full-size tiles.
        """
        for tile_m, tile_n in ((128, 128), (128, 64), (64, 64), (64, 32), (32, 32)):
            grid = -(-shape.m // tile_m) * (-(-shape.n // tile_n))
            if grid >= device.sm_count or (tile_m, tile_n) == (32, 32):
                return cls(tile_m=tile_m, tile_n=tile_n)
        return cls()  # pragma: no cover - unreachable

    def tile_elements(self) -> int:
        return self.tile_m * self.tile_n

    def tile_bytes(self, dtype_bytes: int = DTYPE_BYTES) -> int:
        return self.tile_elements() * dtype_bytes


class GemmKernelModel:
    """Wave schedule and duration model of one GEMM kernel on one device."""

    def __init__(
        self,
        shape: GemmShape,
        device: GPUSpec,
        config: GemmTileConfig | None = None,
        dtype_bytes: int = DTYPE_BYTES,
    ) -> None:
        self.shape = shape
        self.device = device
        self.config = config or GemmTileConfig.default_for(shape, device)
        self.dtype_bytes = dtype_bytes
        self.layout = TileLayout(shape.m, shape.n, self.config.tile_m, self.config.tile_n)

    # -- tiles and waves ---------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return self.layout.num_tiles

    def execution_order(self) -> np.ndarray:
        """Tile indices in launch order (swizzled)."""
        return execution_order(self.layout, self.config.swizzle_size)

    def wave_size(self, sm_count: int | None = None) -> int:
        """Tiles executed concurrently: one per available SM."""
        return self._sms(sm_count)

    def num_waves(self, sm_count: int | None = None) -> int:
        """Number of waves ``T = ceil(num_tiles / SMs)``."""
        return -(-self.num_tiles // self._sms(sm_count))

    def wave_tiles(self, sm_count: int | None = None) -> list[list[int]]:
        """Tile indices of each wave, in execution order, as Python lists."""
        return wave_partition(self.execution_order(), self._sms(sm_count))

    def wave_bytes(self, sm_count: int | None = None) -> np.ndarray:
        """Exact output bytes of each wave, edge tiles included (int64).

        Every wave but the last launches one tile per SM, so a wave holds its
        tile count times a full tile's elements, less what its ragged tiles
        lack.  Only the last tile row and column can be ragged: each tile of
        the last row lacks ``short_rows`` rows of its width, and each tile of
        the last column ``short_cols`` columns of a full tile's height (the
        corner lacks both, its rows counted at its own width).  These deficits
        are taken off the waves that launch the tiles, found through
        :func:`~repro.gpu.swizzle.launch_positions`, so the cost grows with
        ``grid_m + grid_n`` and the launch order is never built.
        """
        layout, sms = self.layout, self._sms(sm_count)
        grid_m, grid_n = layout.grid_m, layout.grid_n
        waves = -(-grid_m * grid_n // sms)
        full = layout.tile_m * layout.tile_n
        elements = np.full(waves, sms * full, dtype=np.int64)
        elements[-1] = (grid_m * grid_n - (waves - 1) * sms) * full
        short_rows = grid_m * layout.tile_m - layout.m
        short_cols = grid_n * layout.tile_n - layout.n
        swizzle = self.config.swizzle_size
        if short_rows:
            last_row = (grid_m - 1) * grid_n + np.arange(grid_n)
            widths = np.full(grid_n, layout.tile_n, dtype=np.int64)
            widths[-1] -= short_cols
            waves_of = launch_positions(layout, swizzle, last_row) // sms
            np.subtract.at(elements, waves_of, short_rows * widths)
        if short_cols:
            last_col = np.arange(1, grid_m + 1) * grid_n - 1
            waves_of = launch_positions(layout, swizzle, last_col) // sms
            np.subtract.at(elements, waves_of, short_cols * layout.tile_m)
        return elements * self.dtype_bytes

    # -- durations ---------------------------------------------------------

    def efficiency(self) -> float:
        """Achieved fraction of peak throughput for this shape.

        Large ``K`` amortises the per-tile prologue/epilogue; small ``K``
        GEMMs are increasingly memory/launch bound.
        """
        k = self.shape.k
        return self.device.compute_efficiency * k / (k + _K_HALF_EFFICIENCY)

    def tile_compute_time(self) -> float:
        """Seconds for one SM to compute one full tile."""
        tile_flops = 2.0 * self.config.tile_m * self.config.tile_n * self.shape.k
        return tile_flops / (self.device.flops_per_sm * self.efficiency())

    def compute_time(self, sm_count: int | None = None) -> float:
        """Compute-bound duration of the main loop (seconds)."""
        return self.num_waves(sm_count) * self.tile_compute_time()

    def memory_time(self) -> float:
        """Memory-bound duration: minimum HBM traffic at peak bandwidth."""
        return self.shape.total_bytes(self.dtype_bytes) / self.device.memory_bytes_per_second

    def duration(self, sm_count: int | None = None, include_launch: bool = True) -> float:
        """Total kernel duration (roofline of compute and memory time)."""
        body = max(self.compute_time(sm_count), self.memory_time())
        if include_launch:
            body += self.device.kernel_launch_seconds
        return body

    def wave_duration(self, sm_count: int | None = None) -> float:
        """Duration of a single wave (kernel body split evenly across waves)."""
        waves = self.num_waves(sm_count)
        return self.duration(sm_count, include_launch=False) / waves

    def wave_completion_times(self, sm_count: int | None = None) -> np.ndarray:
        """Completion time of each wave measured from kernel-body start."""
        waves = self.num_waves(sm_count)
        return (np.arange(1, waves + 1)) * self.wave_duration(sm_count)

    def tile_completion_times(self, jitter: float = 0.05, seed: int = 0) -> np.ndarray:
        """Completion time of every tile on all SMs, indexed by tile index.

        Tiles in the same wave complete within ``jitter`` of a wave duration
        of each other (the paper reports "typically within 5% of a wave
        duration"), reproducing the staircase of Fig. 3.
        """
        waves = self.wave_tiles()
        wave_end = self.wave_completion_times()
        wave_len = self.wave_duration()
        rng = np.random.default_rng(seed)
        times = np.empty(self.num_tiles, dtype=np.float64)
        for wave_index, tiles in enumerate(waves):
            spread = rng.uniform(-jitter, 0.0, size=len(tiles)) * wave_len
            times[tiles] = wave_end[wave_index] + spread
        return times

    def _sms(self, sm_count: int | None) -> int:
        sms = self.device.sm_count if sm_count is None else sm_count
        if sms <= 0:
            raise ValueError("sm_count must be positive")
        return sms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GemmKernelModel({self.shape}, tiles={self.num_tiles}, "
            f"waves={self.num_waves()}, dur={self.duration() * 1e3:.3f} ms)"
        )
