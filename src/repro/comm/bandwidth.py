"""Size-dependent effective-bandwidth curves (paper Fig. 8).

Collectives only reach the interconnect's peak bandwidth for large messages;
below a topology-dependent threshold the per-call setup cost dominates and the
effective bandwidth collapses.  FlashOverlap's tuner relies on this curve in
two ways: the *simulator* uses the analytic curve directly, while the
*predictive search* uses a curve sampled offline at a handful of message sizes
and interpolated (Alg. 1, line 5 / line 14), exactly as the real system
samples NCCL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.topology import Topology


@dataclass(frozen=True)
class AnalyticBandwidthCurve:
    """Closed-form effective-bandwidth model.

    ``bandwidth(s) = peak * s / (s + s_half)`` where ``s_half`` is the
    half-saturation message size.  The corresponding transfer latency,
    ``s / bandwidth(s) = (s + s_half) / peak``, is affine in the message size,
    which matches the usual alpha-beta model of collectives while exposing the
    sharp bandwidth degradation below the knee that Fig. 8 shows.
    """

    peak_bandwidth_bytes: float
    half_saturation_bytes: float

    @classmethod
    def for_topology(cls, topology: Topology) -> "AnalyticBandwidthCurve":
        return cls(
            peak_bandwidth_bytes=topology.peak_bus_bandwidth_bytes,
            half_saturation_bytes=topology.half_saturation_bytes,
        )

    def bandwidth(self, nbytes: float | np.ndarray) -> float | np.ndarray:
        """Effective bandwidth (bytes/s) for a message of ``nbytes``.

        Accepts scalars or arrays; array inputs are evaluated element-wise in
        one vectorized pass (the offline profiling loop samples the whole size
        grid with a single call).
        """
        arr = np.asarray(nbytes, dtype=np.float64)
        if arr.ndim == 0:
            if nbytes <= 0:
                return 0.0
            return self.peak_bandwidth_bytes * nbytes / (nbytes + self.half_saturation_bytes)
        with np.errstate(divide="ignore", invalid="ignore"):
            bw = self.peak_bandwidth_bytes * arr / (arr + self.half_saturation_bytes)
        return np.where(arr <= 0, 0.0, bw)

    def transfer_time(self, nbytes: float | np.ndarray) -> float | np.ndarray:
        """Pure transfer time of ``nbytes`` (seconds), excluding base latency.

        Scalar in, scalar out; array in, array out (element-wise identical to
        the scalar path).
        """
        arr = np.asarray(nbytes, dtype=np.float64)
        if arr.ndim == 0:
            if nbytes <= 0:
                return 0.0
            return nbytes / self.bandwidth(nbytes)
        bw = self.peak_bandwidth_bytes * arr / (arr + self.half_saturation_bytes)
        with np.errstate(divide="ignore", invalid="ignore"):
            time = arr / bw
        return np.where(arr <= 0, 0.0, time)


@dataclass(frozen=True)
class SampledBandwidthCurve:
    """Bandwidth curve sampled at discrete message sizes (offline profiling).

    The predictive tuner never queries the analytic model directly -- it
    interpolates between sampled points, like the real system interpolates
    between profiled NCCL measurements.  Interpolation is linear in
    *transfer time* versus size, which is exact for the affine latency model
    between sample points.
    """

    sizes_bytes: np.ndarray
    bandwidths_bytes: np.ndarray

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes_bytes, dtype=np.float64)
        bws = np.asarray(self.bandwidths_bytes, dtype=np.float64)
        if sizes.ndim != 1 or bws.ndim != 1 or sizes.size != bws.size:
            raise ValueError("sizes and bandwidths must be 1-D arrays of equal length")
        if sizes.size < 2:
            raise ValueError("need at least two sample points")
        if np.any(np.diff(sizes) <= 0):
            raise ValueError("sample sizes must be strictly increasing")
        if np.any(bws <= 0):
            raise ValueError("sampled bandwidths must be positive")
        object.__setattr__(self, "sizes_bytes", sizes)
        object.__setattr__(self, "bandwidths_bytes", bws)

    @property
    def num_samples(self) -> int:
        return int(self.sizes_bytes.size)

    def bandwidth(self, nbytes: float | np.ndarray) -> float | np.ndarray:
        """Interpolated effective bandwidth at ``nbytes`` (scalar or array)."""
        arr = np.asarray(nbytes, dtype=np.float64)
        if arr.ndim == 0:
            if nbytes <= 0:
                return 0.0
            return nbytes / self.transfer_time(nbytes)
        time = self.transfer_time(arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            bw = arr / time
        return np.where(arr <= 0, 0.0, bw)

    def transfer_time(self, nbytes: float | np.ndarray) -> float | np.ndarray:
        """Interpolated transfer time at ``nbytes`` (seconds).

        Accepts scalars or arrays.  The array path evaluates every message
        size in one vectorized pass and is element-wise identical to the
        scalar path (the batch latency predictor relies on this).
        """
        arr = np.asarray(nbytes, dtype=np.float64)
        times = self.sizes_bytes / self.bandwidths_bytes
        if arr.ndim == 0:
            if nbytes <= 0:
                return 0.0
            if nbytes <= self.sizes_bytes[0]:
                # Below the smallest sample: scale the first point's bandwidth.
                return nbytes / self.bandwidths_bytes[0] + (times[0] - self.sizes_bytes[0] / self.bandwidths_bytes[0])
            if nbytes >= self.sizes_bytes[-1]:
                return nbytes / self.bandwidths_bytes[-1]
            return float(np.interp(nbytes, self.sizes_bytes, times))
        out = np.interp(arr, self.sizes_bytes, times)
        below = arr <= self.sizes_bytes[0]
        if below.any():
            low = arr / self.bandwidths_bytes[0] + (times[0] - self.sizes_bytes[0] / self.bandwidths_bytes[0])
            out = np.where(below, low, out)
        above = arr >= self.sizes_bytes[-1]
        if above.any():
            out = np.where(above, arr / self.bandwidths_bytes[-1], out)
        return np.where(arr <= 0, 0.0, out)


#: Smallest and largest message sizes of the offline bandwidth profile.
_MIN_SAMPLE_BYTES = 64 * 1024
_MAX_SAMPLE_BYTES = 1 << 30


def default_sample_sizes(points_per_decade: int = 4) -> np.ndarray:
    """Log-spaced message sizes (64 KiB to 1 GiB) used for offline bandwidth profiling."""
    decades = np.log10(_MAX_SAMPLE_BYTES / _MIN_SAMPLE_BYTES)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    sizes = np.geomspace(_MIN_SAMPLE_BYTES, _MAX_SAMPLE_BYTES, count).astype(np.int64)
    # The sizes never decrease, so truncation can only repeat a neighbour:
    # keep the first of each run (np.unique would also load numpy.ma).
    return sizes[np.diff(sizes, prepend=0) > 0].astype(np.float64)


def sample_bandwidth(
    curve: AnalyticBandwidthCurve,
    sizes_bytes: np.ndarray,
    noise: float = 0.0,
    seed: int = 0,
) -> SampledBandwidthCurve:
    """Profile an analytic curve at discrete sizes (optionally with noise).

    ``noise`` models measurement fluctuation of the offline profiling stage as
    a relative multiplicative error, which is one of the sources of the
    predictor error studied in Fig. 15.
    """
    sizes = np.asarray(sizes_bytes, dtype=np.float64)
    bws = np.asarray(curve.bandwidth(sizes), dtype=np.float64)
    if noise > 0:
        rng = np.random.default_rng(seed)
        bws = bws * (1.0 + rng.uniform(-noise, noise, size=bws.shape))
    return SampledBandwidthCurve(sizes_bytes=sizes, bandwidths_bytes=bws)
