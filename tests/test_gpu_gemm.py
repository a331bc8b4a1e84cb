"""Tests for the GEMM kernel model (repro.gpu.gemm)."""

import numpy as np
import pytest

from repro.gpu.device import A800, RTX_4090
from repro.gpu.gemm import DTYPE_BYTES, GemmKernelModel, GemmShape, GemmTileConfig


class TestGemmShape:
    def test_flops_and_bytes(self):
        shape = GemmShape(m=128, n=256, k=64)
        assert shape.flops == 2 * 128 * 256 * 64
        assert shape.output_elements == 128 * 256
        assert shape.output_bytes() == 128 * 256 * DTYPE_BYTES
        assert shape.input_bytes() == (128 * 64 + 64 * 256) * DTYPE_BYTES
        assert shape.total_bytes() == shape.input_bytes() + shape.output_bytes()

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            GemmShape(0, 1, 1)


class TestTileConfig:
    def test_default_for_large_shape_uses_128x128(self):
        config = GemmTileConfig.default_for(GemmShape(8192, 8192, 4096), RTX_4090)
        assert (config.tile_m, config.tile_n) == (128, 128)

    def test_default_for_small_shape_shrinks_tiles(self):
        config = GemmTileConfig.default_for(GemmShape(256, 1024, 4096), RTX_4090)
        assert config.tile_m * config.tile_n < 128 * 128
        grid = -(-256 // config.tile_m) * (-(-1024 // config.tile_n))
        assert grid >= RTX_4090.sm_count or (config.tile_m, config.tile_n) == (32, 32)

    def test_tile_bytes(self):
        config = GemmTileConfig(tile_m=128, tile_n=128)
        assert config.tile_bytes() == 128 * 128 * 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GemmTileConfig(tile_m=0)
        with pytest.raises(ValueError):
            GemmTileConfig(swizzle_size=-1)


class TestWaves:
    @pytest.fixture
    def model(self):
        # Paper Fig. 3 case: M=2048, N=K=8192 on an RTX 4090 with 128x256
        # tiles -> 512 tiles, 4 waves on 128 SMs.
        shape = GemmShape(m=2048, n=8192, k=8192)
        return GemmKernelModel(shape, RTX_4090, GemmTileConfig(tile_m=128, tile_n=256))

    def test_paper_wave_count_example(self, model):
        assert model.num_tiles == 512
        assert model.num_waves() == 4

    def test_wave_count_with_fewer_sms(self, model):
        assert model.num_waves(100) == -(-512 // 100)
        assert model.num_waves(sm_count=512) == 1

    def test_wave_tiles_cover_all_tiles(self, model):
        waves = model.wave_tiles()
        flattened = [t for wave in waves for t in wave]
        assert sorted(flattened) == list(range(model.num_tiles))

    def test_execution_order_is_permutation(self, model):
        assert sorted(model.execution_order()) == list(range(model.num_tiles))

    def test_invalid_sm_count(self, model):
        with pytest.raises(ValueError):
            model.num_waves(0)


class TestDurations:
    def test_duration_increases_with_k(self):
        short = GemmKernelModel(GemmShape(4096, 8192, 1024), A800).duration()
        long = GemmKernelModel(GemmShape(4096, 8192, 8192), A800).duration()
        assert long > short

    def test_duration_increases_with_fewer_sms(self):
        model = GemmKernelModel(GemmShape(4096, 8192, 4096), A800)
        assert model.duration(sm_count=54) > model.duration(sm_count=108)

    def test_compute_bound_for_large_k(self):
        model = GemmKernelModel(GemmShape(4096, 8192, 8192), A800)
        assert model.compute_time() > model.memory_time()

    def test_tiny_k_collapses_efficiency(self):
        # Very small accumulation depth cannot amortise the tile prologue:
        # the model charges this as a large efficiency loss, so the time per
        # FLOP is far higher than for a deep GEMM.
        shallow = GemmKernelModel(GemmShape(8192, 8192, 64), A800)
        deep = GemmKernelModel(GemmShape(8192, 8192, 8192), A800)
        assert shallow.efficiency() < 0.3
        assert (shallow.duration() / shallow.shape.flops) > 3 * (
            deep.duration() / deep.shape.flops
        )

    def test_duration_is_roofline_plus_launch(self):
        model = GemmKernelModel(GemmShape(4096, 4096, 4096), A800)
        body = max(model.compute_time(), model.memory_time())
        assert model.duration(include_launch=False) == pytest.approx(body)
        assert model.duration() == pytest.approx(body + A800.kernel_launch_seconds)

    def test_efficiency_below_device_peak(self):
        model = GemmKernelModel(GemmShape(4096, 4096, 4096), A800)
        assert 0 < model.efficiency() < A800.compute_efficiency

    def test_realistic_magnitude(self):
        # 2*4096*8192*8192 = 0.55 TFLOP at ~250 TFLOPS -> a few milliseconds.
        model = GemmKernelModel(GemmShape(4096, 8192, 8192), A800)
        assert 1e-3 < model.duration() < 10e-3


class TestCompletionTimes:
    @pytest.fixture
    def model(self):
        return GemmKernelModel(GemmShape(2048, 8192, 8192), RTX_4090)

    def test_wave_completion_monotonic(self, model):
        times = model.wave_completion_times()
        assert np.all(np.diff(times) > 0)
        assert times[-1] == pytest.approx(model.duration(include_launch=False))

    def test_tile_times_form_waves(self, model):
        times = model.tile_completion_times(jitter=0.05, seed=0)
        waves = model.wave_tiles()
        wave_end = model.wave_completion_times()
        wave_len = model.wave_duration()
        for index, tiles in enumerate(waves):
            spread = times[tiles]
            assert np.all(spread <= wave_end[index] + 1e-12)
            assert np.all(spread >= wave_end[index] - 0.06 * wave_len)

    def test_tile_times_deterministic_per_seed(self, model):
        a = model.tile_completion_times(seed=3)
        b = model.tile_completion_times(seed=3)
        c = model.tile_completion_times(seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_wave_bytes(self, model):
        sizes = [len(tiles) for tiles in model.wave_tiles()]
        assert model.wave_bytes().tolist() == [size * 128 * 128 * 2 for size in sizes]

    def test_wave_bytes_count_edge_tiles(self):
        # 3x3 grid of 128x128 tiles whose last row and column are ragged.
        model = GemmKernelModel(GemmShape(300, 260, 64), RTX_4090,
                                GemmTileConfig(tile_m=128, tile_n=128, swizzle_size=0))
        rows, cols = [128, 128, 44], [128, 128, 4]
        per_tile = [r * c * DTYPE_BYTES for r in rows for c in cols]
        assert model.wave_bytes(4).tolist() == [sum(per_tile[:4]), sum(per_tile[4:8]), per_tile[8]]
        assert model.wave_bytes().sum() == model.shape.output_bytes()
