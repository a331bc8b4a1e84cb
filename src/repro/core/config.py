"""Problem and settings definitions shared across the FlashOverlap core.

An :class:`OverlapProblem` bundles everything that defines one "GEMM + X"
instance: the per-GPU GEMM shape, the device, the multi-GPU topology and the
collective primitive.  :class:`OverlapSettings` carries the tunables of the
design itself (search pruning bounds, signal polling cost, ...), with defaults
matching the values used in the paper's evaluation (``S1 = 2``, ``SP = 4``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.comm.primitives import CollectiveKind, CollectiveModel
from repro.comm.topology import Topology
from repro.gpu.device import GPUSpec
from repro.gpu.gemm import DTYPE_BYTES, GemmKernelModel, GemmShape, GemmTileConfig


@dataclass(frozen=True)
class OverlapProblem:
    """One data-dependent "GEMM followed by collective" instance.

    The GEMM shape is the *per-GPU* shape (as in Table 3: sizes are reported
    per GPU).  ``imbalance`` models the per-GPU workload skew of expert
    parallelism: a value of 1.0 means perfectly balanced, 1.3 means the most
    loaded GPU computes 30% more tiles (and communicates 30% more data) than
    the average, which stretches both phases for the lagging rank (Sec. 4.2.2).
    """

    shape: GemmShape
    device: GPUSpec
    topology: Topology
    collective: CollectiveKind
    gemm_config: GemmTileConfig | None = None
    dtype_bytes: int = DTYPE_BYTES
    imbalance: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.imbalance) and self.imbalance >= 1.0):
            raise ValueError(f"imbalance must be finite and >= 1.0, got {self.imbalance}")

    # -- derived models ---------------------------------------------------------

    @property
    def n_gpus(self) -> int:
        return self.topology.n_gpus

    def tile_config(self) -> GemmTileConfig:
        return self.gemm_config or GemmTileConfig.default_for(self.shape, self.device)

    def gemm_model(self) -> GemmKernelModel:
        """GEMM kernel model of this problem's shape on its device."""
        return GemmKernelModel(self.shape, self.device, self.tile_config(), self.dtype_bytes)

    def collective_model(self) -> CollectiveModel:
        return CollectiveModel(kind=self.collective, topology=self.topology)

    def compute_sm_count(self) -> int:
        """SMs left for the GEMM when the communication kernels are resident."""
        return max(1, self.device.sm_count - self.topology.comm_sm_count)

    def output_bytes(self) -> int:
        """Bytes of GEMM output communicated by the collective (per GPU)."""
        return self.shape.output_bytes(self.dtype_bytes)

    def with_collective(self, collective: CollectiveKind) -> "OverlapProblem":
        return replace(self, collective=collective)

    def with_shape(self, shape: GemmShape) -> "OverlapProblem":
        return replace(self, shape=shape)

    def describe(self) -> str:
        return (
            f"{self.shape} + {self.collective.short_name} on "
            f"{self.topology.n_gpus}x {self.device.name} ({self.topology.name})"
        )


#: Largest ``max_exhaustive_waves``: the pruned design space of ``T`` waves is
#: built from all ``2^(T-1)`` decision vectors, for every ``T`` up to it.
MAX_EXHAUSTIVE_WAVES = 16
#: Largest ``bandwidth_samples_per_decade``: the offline profile spans about
#: 4.2 decades (64 KiB to 1 GiB), so this caps it at about 4,200 points.
MAX_BANDWIDTH_SAMPLES_PER_DECADE = 1000


@dataclass(frozen=True)
class OverlapSettings:
    """Tunables of the FlashOverlap design and its search procedure."""

    #: Maximum size (in waves) of the first wave group considered by the
    #: pruned search (paper uses 2).
    max_first_group: int = 2
    #: Maximum size (in waves) of the last wave group (paper uses 4).
    max_last_group: int = 4
    #: Largest wave count for which the pruned design space is enumerated
    #: exhaustively; beyond this a heuristic candidate family is used.
    max_exhaustive_waves: int = 14
    #: Latency of the signal round-trip: the polling kernel noticing that the
    #: counting table reached the group size and releasing the collective.
    signal_poll_us: float = 3.0
    #: Extra per-group launch overhead on the communication stream (stream
    #: wait + NCCL (re)launch), in microseconds.
    comm_launch_us: float = 8.0
    #: Relative jitter applied by the ground-truth executor to model
    #: measurement noise and non-ideal implementation effects.
    executor_jitter: float = 0.02
    #: Number of bandwidth-curve sample points per decade used by the offline
    #: profiling stage feeding the predictor.
    bandwidth_samples_per_decade: int = 4
    #: Relative measurement noise of the offline bandwidth profiling.
    bandwidth_profile_noise: float = 0.015
    #: Random seed used by every stochastic component (jitter, profiling noise).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_first_group < 1 or self.max_last_group < 1:
            raise ValueError("group-size bounds must be >= 1")
        if not 1 <= self.max_exhaustive_waves <= MAX_EXHAUSTIVE_WAVES:
            raise ValueError(
                f"max_exhaustive_waves must be in 1..{MAX_EXHAUSTIVE_WAVES}, "
                f"got {self.max_exhaustive_waves}"
            )
        if not 1 <= self.bandwidth_samples_per_decade <= MAX_BANDWIDTH_SAMPLES_PER_DECADE:
            raise ValueError(
                f"bandwidth_samples_per_decade must be in 1..{MAX_BANDWIDTH_SAMPLES_PER_DECADE}, "
                f"got {self.bandwidth_samples_per_decade}"
            )
        for name in ("signal_poll_us", "comm_launch_us", "executor_jitter", "bandwidth_profile_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.signal_poll_us < 0 or self.comm_launch_us < 0:
            raise ValueError("overheads must be non-negative")

    @property
    def signal_poll_s(self) -> float:
        return self.signal_poll_us * 1e-6

    @property
    def comm_launch_s(self) -> float:
        return self.comm_launch_us * 1e-6


DEFAULT_SETTINGS = OverlapSettings()
