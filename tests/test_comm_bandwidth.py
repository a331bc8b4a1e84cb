"""Tests for the bandwidth curves (repro.comm.bandwidth, Fig. 8)."""

import numpy as np
import pytest

from repro.comm.bandwidth import (
    AnalyticBandwidthCurve,
    SampledBandwidthCurve,
    default_sample_sizes,
    sample_bandwidth,
)
from repro.comm.topology import a800_nvlink, rtx4090_pcie
from repro.core.config import MAX_BANDWIDTH_SAMPLES_PER_DECADE


class TestAnalyticCurve:
    @pytest.fixture
    def curve(self):
        return AnalyticBandwidthCurve.for_topology(rtx4090_pcie(4))

    def test_bandwidth_monotonic_in_size(self, curve):
        sizes = np.geomspace(1e4, 1e9, 30)
        bws = [curve.bandwidth(s) for s in sizes]
        assert all(b2 >= b1 for b1, b2 in zip(bws, bws[1:]))

    def test_bandwidth_saturates_at_peak(self, curve):
        assert curve.bandwidth(1 << 34) < curve.peak_bandwidth_bytes
        assert curve.bandwidth(1 << 34) > 0.95 * curve.peak_bandwidth_bytes

    def test_half_saturation_point(self, curve):
        half = curve.bandwidth(curve.half_saturation_bytes) / curve.peak_bandwidth_bytes
        assert half == pytest.approx(0.5)

    def test_small_message_degradation(self, curve):
        # Paper Sec. 3.2.2: a 192 KB tile achieves only ~13% of the bandwidth.
        assert curve.bandwidth(192 * 1024) / curve.peak_bandwidth_bytes < 0.2

    def test_zero_size(self, curve):
        assert curve.bandwidth(0) == 0.0
        assert curve.transfer_time(0) == 0.0

    def test_transfer_time_is_affine(self, curve):
        # (s + s_half) / peak: doubling size adds exactly s/peak.
        t1 = curve.transfer_time(1 << 20)
        t2 = curve.transfer_time(1 << 21)
        assert t2 - t1 == pytest.approx((1 << 20) / curve.peak_bandwidth_bytes)

    def test_nvlink_needs_larger_messages_to_saturate(self):
        # A fast link amortises its per-transfer cost only with big messages,
        # so at one mid-size message NVLink reaches a smaller share of its peak.
        pcie = AnalyticBandwidthCurve.for_topology(rtx4090_pcie(4))
        nvlink = AnalyticBandwidthCurve.for_topology(a800_nvlink(4))
        size = 4 << 20
        assert (nvlink.bandwidth(size) / nvlink.peak_bandwidth_bytes
                < pcie.bandwidth(size) / pcie.peak_bandwidth_bytes)


class TestSampledCurve:
    @pytest.fixture
    def analytic(self):
        return AnalyticBandwidthCurve.for_topology(a800_nvlink(4))

    def test_sampling_without_noise_interpolates_exactly(self, analytic):
        sampled = sample_bandwidth(analytic, default_sample_sizes(), noise=0.0)
        for size in (1 << 20, 5 << 20, 123 << 20):
            assert sampled.transfer_time(size) == pytest.approx(
                analytic.transfer_time(size), rel=1e-6
            )

    def test_extrapolation_beyond_samples(self, analytic):
        sampled = sample_bandwidth(analytic, default_sample_sizes(), noise=0.0)
        big = float(sampled.sizes_bytes[-1] * 8)
        assert sampled.transfer_time(big) == pytest.approx(analytic.transfer_time(big), rel=0.05)

    def test_noise_changes_samples_deterministically(self, analytic):
        a = sample_bandwidth(analytic, default_sample_sizes(), noise=0.05, seed=1)
        b = sample_bandwidth(analytic, default_sample_sizes(), noise=0.05, seed=1)
        c = sample_bandwidth(analytic, default_sample_sizes(), noise=0.05, seed=2)
        np.testing.assert_array_equal(a.bandwidths_bytes, b.bandwidths_bytes)
        assert not np.array_equal(a.bandwidths_bytes, c.bandwidths_bytes)

    def test_samples_exactly_the_given_sizes(self, analytic):
        sizes = np.array([1 << 16, 1 << 20, 1 << 24], dtype=np.float64)
        sampled = sample_bandwidth(analytic, sizes)
        np.testing.assert_array_equal(sampled.sizes_bytes, sizes)
        np.testing.assert_array_equal(sampled.bandwidths_bytes, analytic.bandwidth(sizes))

    def test_noise_is_a_bounded_relative_error(self, analytic):
        sizes = default_sample_sizes()
        noisy = sample_bandwidth(analytic, sizes, noise=0.05, seed=3)
        ratio = noisy.bandwidths_bytes / analytic.bandwidth(sizes)
        assert np.all(np.abs(ratio - 1.0) <= 0.05)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            SampledBandwidthCurve(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SampledBandwidthCurve(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SampledBandwidthCurve(np.array([1.0, 2.0]), np.array([1.0, -1.0]))

    def test_zero_size(self, analytic):
        sampled = sample_bandwidth(analytic, default_sample_sizes())
        assert sampled.bandwidth(0) == 0.0


class TestSampleSizes:
    def test_default_sizes_are_log_spaced(self):
        sizes = default_sample_sizes()
        assert np.all(np.diff(sizes) > 0)
        assert sizes[0] >= 64 * 1024
        assert sizes[-1] <= (1 << 30) + 1

    def test_range_is_64_kib_to_1_gib(self):
        sizes = default_sample_sizes()
        assert (sizes[0], sizes[-1]) == (64 * 1024, 1 << 30)

    def test_points_per_decade(self):
        dense = default_sample_sizes(points_per_decade=8)
        sparse = default_sample_sizes(points_per_decade=2)
        assert len(dense) > len(sparse)

    def test_matches_the_sorted_unique_formula_at_every_density(self):
        # The np.unique formula the sizes used to come from is the oracle:
        # keeping the first of each run of equal truncated sizes must give
        # the same sorted, duplicate-free array at every allowed density.
        decades = np.log10((1 << 30) / (64 * 1024))
        for points in range(1, MAX_BANDWIDTH_SAMPLES_PER_DECADE + 1):
            count = max(2, int(round(decades * points)) + 1)
            expected = np.unique(
                np.geomspace(64 * 1024, 1 << 30, count).astype(np.int64)
            ).astype(np.float64)
            sizes = default_sample_sizes(points_per_decade=points)
            assert sizes.dtype == expected.dtype, points
            np.testing.assert_array_equal(sizes, expected, err_msg=str(points))


class TestVectorizedCurves:
    """Array inputs evaluate element-wise identically to the scalar paths."""

    @pytest.fixture
    def analytic(self):
        return AnalyticBandwidthCurve(peak_bandwidth_bytes=50e9, half_saturation_bytes=4e6)

    @pytest.fixture
    def sampled(self, analytic):
        return sample_bandwidth(analytic, default_sample_sizes(), noise=0.02, seed=5)

    def test_analytic_bandwidth_accepts_arrays(self, analytic):
        sizes = np.array([-1.0, 0.0, 1.0, 1e4, 4e6, 1e9])
        batch = analytic.bandwidth(sizes)
        np.testing.assert_array_equal(batch, [analytic.bandwidth(s) for s in sizes])

    def test_analytic_transfer_time_accepts_arrays(self, analytic):
        sizes = np.array([0.0, 64.0, 1e5, 4e6, 1e9])
        np.testing.assert_array_equal(
            analytic.transfer_time(sizes), [analytic.transfer_time(s) for s in sizes]
        )

    def test_sampled_transfer_time_accepts_arrays(self, sampled):
        # Below the smallest sample, on samples, between samples, above the top.
        sizes = np.concatenate(
            [[0.0, 1.0, 1024.0], sampled.sizes_bytes[:3], sampled.sizes_bytes[:2] * 1.7, [1e12]]
        )
        np.testing.assert_array_equal(
            sampled.transfer_time(sizes), [sampled.transfer_time(s) for s in sizes]
        )

    def test_sampled_bandwidth_accepts_arrays(self, sampled):
        sizes = np.array([0.0, 1e5, 1e6, 1e8, 1e12])
        np.testing.assert_array_equal(
            sampled.bandwidth(sizes), [sampled.bandwidth(s) for s in sizes]
        )

    def test_sample_bandwidth_uses_one_vectorized_call(self, analytic):
        sizes = default_sample_sizes()
        curve = sample_bandwidth(analytic, sizes)
        np.testing.assert_array_equal(curve.bandwidths_bytes, [analytic.bandwidth(s) for s in sizes])
