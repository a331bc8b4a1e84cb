"""Tests for device specifications (repro.gpu.device)."""

import pytest

from repro.gpu.device import (
    A800,
    ASCEND_910B,
    RTX_4090,
    GPUSpec,
    device_by_name,
    known_devices,
)


class TestGPUSpec:
    def test_derived_rates(self):
        spec = GPUSpec(name="x", sm_count=100, fp16_tflops=100.0, hbm_bandwidth_gbps=1000.0)
        assert spec.flops_per_second == pytest.approx(1e14)
        assert spec.flops_per_sm == pytest.approx(1e12)
        assert spec.memory_bytes_per_second == pytest.approx(1e12)
        assert spec.kernel_launch_seconds == pytest.approx(6e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sm_count": 0},
            {"fp16_tflops": -1.0},
            {"hbm_bandwidth_gbps": 0.0},
            {"compute_efficiency": 1.5},
            {"compute_efficiency": 0.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        base = dict(name="bad", sm_count=10, fp16_tflops=10.0, hbm_bandwidth_gbps=100.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            GPUSpec(**base)


class TestPresets:
    def test_paper_devices_present(self):
        devices = known_devices()
        assert {"rtx4090", "a800", "ascend910b"} <= set(devices)

    def test_rtx4090_matches_datasheet(self):
        assert RTX_4090.sm_count == 128
        assert RTX_4090.fp16_tflops == pytest.approx(330.0)
        assert RTX_4090.hbm_bandwidth_gbps == pytest.approx(1008.0)

    def test_a800_has_higher_bandwidth_than_4090(self):
        # Table 5 discussion: comparable FP16 TFLOPS but ~2x HBM bandwidth.
        assert A800.hbm_bandwidth_gbps > 1.8 * RTX_4090.hbm_bandwidth_gbps
        assert abs(A800.fp16_tflops - RTX_4090.fp16_tflops) / RTX_4090.fp16_tflops < 0.1

    def test_ascend_is_distinct_platform(self):
        assert ASCEND_910B.sm_count != A800.sm_count

    def test_device_by_name_aliases(self):
        assert device_by_name("RTX 4090") is RTX_4090
        assert device_by_name("a800") is A800
        assert device_by_name("Ascend_910B") is ASCEND_910B

    def test_device_by_name_unknown(self):
        with pytest.raises(KeyError):
            device_by_name("tpu-v9")
