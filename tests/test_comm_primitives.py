"""Tests for the collective latency models (repro.comm.primitives)."""

import pytest

from repro.comm.bandwidth import AnalyticBandwidthCurve, default_sample_sizes, sample_bandwidth
from repro.comm.primitives import CollectiveKind, CollectiveModel, ring_volume_factor
from repro.comm.topology import a800_nvlink, rtx4090_pcie


class TestCollectiveKind:
    def test_from_name_aliases(self):
        assert CollectiveKind.from_name("AllReduce") is CollectiveKind.ALL_REDUCE
        assert CollectiveKind.from_name("ar") is CollectiveKind.ALL_REDUCE
        assert CollectiveKind.from_name("reduce_scatter") is CollectiveKind.REDUCE_SCATTER
        assert CollectiveKind.from_name("A2A") is CollectiveKind.ALL_TO_ALL
        assert CollectiveKind.from_name("all-gather") is CollectiveKind.ALL_GATHER

    def test_from_name_unknown(self):
        with pytest.raises(KeyError):
            CollectiveKind.from_name("gatherv")

    def test_short_names(self):
        assert CollectiveKind.ALL_REDUCE.short_name == "AR"
        assert CollectiveKind.ALL_TO_ALL.short_name == "A2A"


class TestVolumeFactors:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_ring_factors(self, n):
        scale = (n - 1) / n
        assert ring_volume_factor(CollectiveKind.ALL_REDUCE, n) == pytest.approx(2 * scale)
        assert ring_volume_factor(CollectiveKind.REDUCE_SCATTER, n) == pytest.approx(scale)
        assert ring_volume_factor(CollectiveKind.ALL_GATHER, n) == pytest.approx(scale)
        assert ring_volume_factor(CollectiveKind.ALL_TO_ALL, n) == pytest.approx(scale)

    def test_single_gpu_moves_nothing(self):
        assert ring_volume_factor(CollectiveKind.ALL_REDUCE, 1) == 0.0


class TestLatencyModel:
    @pytest.fixture
    def model(self):
        return CollectiveModel(kind=CollectiveKind.ALL_REDUCE, topology=rtx4090_pcie(4))

    def test_latency_monotonic_in_size(self, model):
        latencies = [model.latency(s) for s in (1 << 16, 1 << 20, 1 << 24, 1 << 28)]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_zero_payload_free(self, model):
        assert model.latency(0) == 0.0

    def test_negative_payload_rejected(self, model):
        with pytest.raises(ValueError):
            model.latency(-1)

    def test_allreduce_costs_about_twice_reducescatter(self):
        topo = a800_nvlink(4)
        size = 256 << 20
        ar = CollectiveModel(CollectiveKind.ALL_REDUCE, topo).latency(size)
        rs = CollectiveModel(CollectiveKind.REDUCE_SCATTER, topo).latency(size)
        assert ar / rs == pytest.approx(2.0, rel=0.1)

    def test_segmentation_is_never_cheaper(self, model):
        size = 64 << 20
        whole = model.latency(size)
        for segments in (2, 4, 16):
            assert segments * model.latency(size / segments) >= whole

    def test_segmentation_penalty_grows_with_fragmentation(self, model):
        size = 64 << 20
        assert 64 * model.latency(size / 64) > 4 * model.latency(size / 4)

    def test_bus_bandwidth_approaches_peak(self, model):
        bus = model.bus_bandwidth(1 << 30)
        assert bus < model.topology.peak_bus_bandwidth_bytes
        assert bus > 0.9 * model.topology.peak_bus_bandwidth_bytes

    def test_effective_bandwidth_below_bus_bandwidth_for_allreduce(self, model):
        size = 64 << 20
        assert size / model.latency(size) < model.bus_bandwidth(size)

    def test_a2a_setup_scales_with_peers(self):
        topo = rtx4090_pcie(8)
        a2a = CollectiveModel(CollectiveKind.ALL_TO_ALL, topo)
        ar = CollectiveModel(CollectiveKind.ALL_REDUCE, topo)
        assert a2a.setup_latency() > ar.setup_latency()

    def test_with_sampled_curve_close_to_analytic(self):
        topo = a800_nvlink(4)
        model = CollectiveModel(CollectiveKind.REDUCE_SCATTER, topo)
        sampled = sample_bandwidth(AnalyticBandwidthCurve.for_topology(topo), default_sample_sizes(),
                                   noise=0.0)
        swapped = model.with_curve(sampled)
        for size in (1 << 20, 64 << 20, 512 << 20):
            assert swapped.latency(size) == pytest.approx(model.latency(size), rel=1e-3)

    def test_nvlink_faster_than_pcie(self):
        size = 128 << 20
        pcie = CollectiveModel(CollectiveKind.ALL_REDUCE, rtx4090_pcie(4)).latency(size)
        nvlink = CollectiveModel(CollectiveKind.ALL_REDUCE, a800_nvlink(4)).latency(size)
        assert nvlink < pcie / 4
