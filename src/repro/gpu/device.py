"""Device specifications for the simulated accelerators.

Only a handful of numbers matter to the overlap model: the number of streaming
multiprocessors (which sets the wave size of a GEMM), the peak dense FP16
throughput and its achievable fraction (which set the compute-bound GEMM
duration), the HBM bandwidth (which sets the memory-bound duration and the
element-wise kernel costs), and the kernel-launch overhead.  Presets follow
published datasheet figures for the devices used in the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one accelerator.

    Attributes
    ----------
    name:
        Human-readable device name.
    sm_count:
        Number of streaming multiprocessors (or AI cores for NPUs).
    fp16_tflops:
        Peak dense FP16/BF16 tensor throughput in TFLOP/s.
    hbm_bandwidth_gbps:
        Peak device-memory bandwidth in GB/s.
    compute_efficiency:
        Fraction of peak throughput achieved by a well-tuned GEMM with a large
        accumulation dimension.
    kernel_launch_us:
        Fixed per-kernel launch overhead in microseconds.
    l2_cache_mb:
        L2 cache capacity in MiB (used by the swizzle heuristic).
    """

    name: str
    sm_count: int
    fp16_tflops: float
    hbm_bandwidth_gbps: float
    compute_efficiency: float = 0.80
    kernel_launch_us: float = 6.0
    l2_cache_mb: float = 40.0

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ValueError("sm_count must be positive")
        if self.fp16_tflops <= 0 or self.hbm_bandwidth_gbps <= 0:
            raise ValueError("throughput and bandwidth must be positive")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")

    # -- derived rates -----------------------------------------------------

    @property
    def flops_per_second(self) -> float:
        """Peak FP16 FLOP/s."""
        return self.fp16_tflops * 1e12

    @property
    def flops_per_sm(self) -> float:
        """Peak FP16 FLOP/s contributed by a single SM."""
        return self.flops_per_second / self.sm_count

    @property
    def memory_bytes_per_second(self) -> float:
        """Peak HBM bandwidth in bytes/s."""
        return self.hbm_bandwidth_gbps * 1e9

    @property
    def kernel_launch_seconds(self) -> float:
        return self.kernel_launch_us * 1e-6


# -- presets -----------------------------------------------------------------

RTX_4090 = GPUSpec(
    name="RTX 4090",
    sm_count=128,
    fp16_tflops=330.0,
    hbm_bandwidth_gbps=1008.0,
    compute_efficiency=0.75,
    kernel_launch_us=6.0,
    l2_cache_mb=72.0,
)

RTX_3090 = GPUSpec(
    name="RTX 3090",
    sm_count=82,
    fp16_tflops=142.0,
    hbm_bandwidth_gbps=936.0,
    compute_efficiency=0.72,
    kernel_launch_us=6.0,
    l2_cache_mb=6.0,
)

A800 = GPUSpec(
    name="A800",
    sm_count=108,
    fp16_tflops=312.0,
    hbm_bandwidth_gbps=1935.0,
    compute_efficiency=0.80,
    kernel_launch_us=5.0,
    l2_cache_mb=40.0,
)

A100 = GPUSpec(
    name="A100",
    sm_count=108,
    fp16_tflops=312.0,
    hbm_bandwidth_gbps=2039.0,
    compute_efficiency=0.80,
    kernel_launch_us=5.0,
    l2_cache_mb=40.0,
)

H100 = GPUSpec(
    name="H100 SXM",
    sm_count=132,
    fp16_tflops=989.0,
    hbm_bandwidth_gbps=3350.0,
    compute_efficiency=0.78,
    kernel_launch_us=5.0,
    l2_cache_mb=50.0,
)

ASCEND_910B = GPUSpec(
    name="Ascend 910B",
    sm_count=24,
    fp16_tflops=376.0,
    hbm_bandwidth_gbps=1600.0,
    compute_efficiency=0.70,
    kernel_launch_us=10.0,
    l2_cache_mb=192.0,
)


def known_devices() -> dict[str, GPUSpec]:
    """Return the preset devices keyed by short name."""
    return {
        "rtx4090": RTX_4090,
        "rtx3090": RTX_3090,
        "a800": A800,
        "a100": A100,
        "h100": H100,
        "ascend910b": ASCEND_910B,
    }


def device_by_name(name: str) -> GPUSpec:
    """Look up a preset device by its short name (case-insensitive)."""
    devices = known_devices()
    key = name.strip().lower().replace(" ", "").replace("-", "").replace("_", "")
    if key not in devices:
        raise KeyError(f"unknown device {name!r}; known: {sorted(devices)}")
    return devices[key]
