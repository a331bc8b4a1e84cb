"""Tests for the kernel categories (repro.gpu.kernels)."""

from repro.gpu.kernels import KernelCategory


class TestKernelCategory:
    def test_categories_cover_pipeline(self):
        values = {c.value for c in KernelCategory}
        assert {"gemm", "comm", "signal", "elementwise", "reorder"} <= values
