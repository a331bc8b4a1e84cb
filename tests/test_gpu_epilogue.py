"""Tests for element-wise kernels and the reorder overhead model."""

import numpy as np
import pytest

from repro.gpu.device import A800, RTX_4090
from repro.gpu.epilogue import ElementwiseKernelModel, ReorderOverheadModel, rmsnorm
from repro.gpu.gemm import GemmShape, GemmTileConfig


class TestFunctionalOperators:
    def test_rmsnorm_unit_rms(self, rng):
        x = rng.standard_normal((16, 64))
        out = rmsnorm(x)
        rms = np.sqrt(np.mean(out * out, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-6)

    def test_rmsnorm_rowwise_property(self, rng):
        # Row-wise operators commute with row sharding -- the property the
        # ReduceScatter reordering relies on.
        x = rng.standard_normal((10, 32))
        full = rmsnorm(x)
        sharded = np.concatenate([rmsnorm(x[:5]), rmsnorm(x[5:])], axis=0)
        np.testing.assert_allclose(full, sharded)


class TestElementwiseModel:
    def test_duration_scales_linearly(self):
        model = ElementwiseKernelModel(A800)
        small = model.duration(1 << 20, include_launch=False)
        large = model.duration(1 << 22, include_launch=False)
        assert large == pytest.approx(4 * small)

    def test_launch_overhead_added(self):
        model = ElementwiseKernelModel(A800)
        assert model.duration(0) == pytest.approx(A800.kernel_launch_seconds)

    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            ElementwiseKernelModel(A800).duration(-1)


class TestReorderOverhead:
    @pytest.fixture
    def config(self):
        return GemmTileConfig(tile_m=128, tile_n=128)

    @pytest.fixture
    def shape(self):
        return GemmShape(4096, 8192, 8192)

    def test_elementwise_overhead_within_paper_range(self, config, shape):
        # Table 5: post-communication reorder adds ~7-10% to RMSNorm.
        for device in (A800, RTX_4090):
            model = ReorderOverheadModel(device)
            for unit in ("tile", "subtile", "subtoken"):
                overhead = model.elementwise_overhead(unit, config, n_gpus=4, shape=shape)
                assert 0.04 < overhead < 0.13

    def test_finer_units_cost_more(self, config, shape):
        model = ReorderOverheadModel(A800)
        tile = model.elementwise_overhead("tile", config, 4, shape)
        subtile = model.elementwise_overhead("subtile", config, 4, shape)
        subtoken = model.elementwise_overhead("subtoken", config, 4, shape)
        assert tile <= subtile <= subtoken

    def test_a800_cheaper_than_4090(self, config, shape):
        # Higher HBM bandwidth mitigates the irregular-access penalty.
        a800 = ReorderOverheadModel(A800).elementwise_overhead("subtoken", config, 4, shape)
        rtx = ReorderOverheadModel(RTX_4090).elementwise_overhead("subtoken", config, 4, shape)
        assert a800 < rtx

    def test_gemm_epilogue_overhead_under_one_percent(self, config, shape):
        # Table 5: pre-communication reorder adds <1% to the GEMM.
        for device in (A800, RTX_4090):
            model = ReorderOverheadModel(device)
            for unit in ("tile", "subtile", "subtoken"):
                overhead = model.gemm_epilogue_overhead(unit, config, 4, shape)
                assert 0.0 < overhead < 0.01

    def test_gemm_overhead_shrinks_with_k(self, config):
        model = ReorderOverheadModel(A800)
        small_k = model.gemm_epilogue_overhead("tile", config, 4, GemmShape(4096, 8192, 1024))
        large_k = model.gemm_epilogue_overhead("tile", config, 4, GemmShape(4096, 8192, 16384))
        assert large_k < small_k

    def test_small_matrices_cost_more(self, config):
        model = ReorderOverheadModel(A800)
        small = model.elementwise_overhead("tile", config, 4, GemmShape(128, 1024, 1024))
        large = model.elementwise_overhead("tile", config, 4, GemmShape(32768, 8192, 1024))
        assert small > large

    def test_unknown_unit_rejected(self, config, shape):
        model = ReorderOverheadModel(A800)
        with pytest.raises(ValueError):
            model.elementwise_overhead("block", config, 4, shape)
