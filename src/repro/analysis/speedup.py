"""Operator-level speedup surveys: method comparisons and heatmaps.

These are the data-collection routines behind Fig. 10 (average speedups per
primitive / GPU count), Fig. 11 (typical shapes), Fig. 13 (speedup heatmap and
ratio-of-theoretical heatmap) and Fig. 16 (Ascend NPUs).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import default_baselines
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.overlap import FlashOverlapOperator, PricedPlan
from repro.gpu.gemm import GemmShape


@dataclass
class OperatorComparison:
    """Speedups of every method on one problem, normalised to non-overlap."""

    problem: OverlapProblem
    speedups: dict[str, float] = field(init=False, default_factory=dict)

    def best_method(self) -> str:
        return max(self.speedups, key=lambda k: self.speedups[k])


def compare_methods(plan: PricedPlan, settings: OverlapSettings = DEFAULT_SETTINGS) -> OperatorComparison:
    """Evaluate the default baselines next to FlashOverlap's priced ``plan``.

    FlashOverlap's entry is ``plan.speedup`` itself: nothing is tuned again.
    For a bare problem, pass ``FlashOverlapOperator(problem, settings).report()``.
    """
    comparison = OperatorComparison(problem=plan.problem)
    for method in default_baselines(settings):
        result = method.evaluate(plan.problem)
        if result.supported:
            comparison.speedups[method.name] = plan.non_overlap_latency / result.latency
    comparison.speedups["flashoverlap"] = plan.speedup
    return comparison


def summarize_speedups(comparisons: Iterable[OperatorComparison]) -> dict[str, dict[str, float]]:
    """Aggregate per-method mean / min / max speedups (one Fig. 10 bar)."""
    collected: dict[str, list[float]] = {}
    for comparison in comparisons:
        for method, speedup in comparison.speedups.items():
            collected.setdefault(method, []).append(speedup)
    summary = {}
    for method, values in collected.items():
        arr = np.asarray(values)
        summary[method] = {
            "mean": float(arr.mean()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "count": int(arr.size),
        }
    return summary


@dataclass
class HeatmapResult:
    """Speedup and ratio-of-theoretical grids over (M x N, K) axes (Fig. 13)."""

    mn_values: list[int]
    k_values: list[int]
    speedup: np.ndarray
    theoretical_ratio: np.ndarray

    def mean_theoretical_ratio(self) -> float:
        return float(np.mean(self.theoretical_ratio))


def speedup_heatmap(
    mn_values: Sequence[int],
    k_values: Sequence[int],
    problem_builder: Callable[[int, int], OverlapProblem],
    settings: OverlapSettings = DEFAULT_SETTINGS,
) -> HeatmapResult:
    """Sweep a grid of shapes and collect speedup / ratio heatmaps.

    ``problem_builder(mn_mega, k_kilo)`` maps one grid cell to an
    :class:`OverlapProblem`; rows of the result are K values, columns are
    output sizes (as in Fig. 13).
    """
    speedup = np.zeros((len(k_values), len(mn_values)))
    ratio = np.zeros_like(speedup)
    for i, k in enumerate(k_values):
        for j, mn in enumerate(mn_values):
            problem = problem_builder(mn, k)
            operator = FlashOverlapOperator(problem, settings)
            report = operator.report()
            speedup[i, j] = report.speedup
            ratio[i, j] = min(1.0, report.ratio_of_theoretical)
    return HeatmapResult(
        mn_values=list(mn_values), k_values=list(k_values), speedup=speedup, theoretical_ratio=ratio
    )


def shape_survey(
    shapes: Iterable[GemmShape],
    problem_builder: Callable[[GemmShape], OverlapProblem],
    settings: OverlapSettings = DEFAULT_SETTINGS,
) -> list[OperatorComparison]:
    """Run the method comparison over a suite of shapes (Fig. 10 / 11 / 16)."""
    reports = (FlashOverlapOperator(problem_builder(shape), settings).report() for shape in shapes)
    return [compare_methods(report, settings=settings) for report in reports]
