"""Tests for the analysis helpers (repro.analysis)."""

import numpy as np
import pytest

from repro.analysis.breakdown import PATTERNS, breakdown_fractions, estimate_breakdown_table
from repro.analysis.reporting import format_heatmap, format_table
from repro.analysis.speedup import (
    compare_methods,
    shape_survey,
    speedup_heatmap,
    summarize_speedups,
)
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.overlap import FlashOverlapOperator
from repro.e2e import EndToEndEstimator
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape
from repro.workloads.e2e import llama3_inference_workload


@pytest.fixture
def settings():
    return OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


class TestReporting:
    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2]])
        assert "name" in text and "1.235" in text and "bb" in text

    def test_format_heatmap(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        text = format_heatmap(grid, ["r1", "r2"], ["c1", "c2"], corner="K")
        assert "r1" in text and "c2" in text and "4.00" in text

    def test_format_heatmap_shape_mismatch(self):
        with pytest.raises(ValueError):
            format_heatmap(np.zeros((2, 2)), ["a"], ["b", "c"])


class TestSpeedupSurveys:
    def _problem(self, shape: GemmShape) -> OverlapProblem:
        return OverlapProblem(
            shape=shape, device=RTX_4090, topology=rtx4090_pcie(4),
            collective=CollectiveKind.ALL_REDUCE,
        )

    def test_compare_methods_includes_flashoverlap(self, settings):
        problem = self._problem(GemmShape(2048, 8192, 8192))
        report = FlashOverlapOperator(problem, settings).report()
        comparison = compare_methods(report, settings=settings)
        assert comparison.problem is problem
        assert comparison.speedups["flashoverlap"] == report.speedup
        assert "vanilla-decomposition" in comparison.speedups
        # P2P methods are excluded on the PCIe box.
        assert "flux" not in comparison.speedups
        assert comparison.best_method() == "flashoverlap"

    def test_summarize_speedups(self, settings):
        shapes = [GemmShape(2048, 8192, 8192), GemmShape(4096, 8192, 8192)]
        comparisons = shape_survey(shapes, self._problem, settings=settings)
        summary = summarize_speedups(comparisons)
        assert summary["flashoverlap"]["count"] == 2
        assert summary["flashoverlap"]["min"] <= summary["flashoverlap"]["mean"] <= summary["flashoverlap"]["max"]

    def test_speedup_heatmap_shapes_and_ranges(self, settings):
        def builder(mn_mega, k_kilo):
            total = mn_mega * 1024 * 1024
            return self._problem(GemmShape(total // 8192, 8192, k_kilo * 1024))

        result = speedup_heatmap([16, 32], [8, 16], builder, settings=settings)
        assert result.speedup.shape == (2, 2)
        assert np.all(result.speedup > 0.9)
        assert np.all(result.theoretical_ratio <= 1.0)
        assert 0.5 < result.mean_theoretical_ratio() <= 1.0


class TestBreakdown:
    @pytest.fixture
    def estimate(self, settings):
        return EndToEndEstimator(settings).estimate(llama3_inference_workload(layers=1))

    def test_breakdown_fractions_contains_all_patterns(self, estimate):
        fractions = breakdown_fractions(estimate)
        assert list(fractions) == list(PATTERNS)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_breakdown_table_renders(self, estimate):
        text = estimate_breakdown_table([estimate])
        assert "GEMM+AR" in text and "%" in text and estimate.name in text
