"""Analysis helpers: speedup surveys, heatmaps, breakdowns and text reports.

The speedup surveys (Figs. 10, 11, 13, 16) price single operators through
:class:`~repro.core.overlap.FlashOverlapOperator`; the Fig. 4 breakdowns
render :class:`~repro.e2e.estimator.WorkloadEstimate` objects, so every
model-level number comes from :class:`~repro.e2e.estimator.EndToEndEstimator`.
"""

from repro.analysis.reporting import format_heatmap, format_table
from repro.analysis.speedup import (
    HeatmapResult,
    OperatorComparison,
    compare_methods,
    speedup_heatmap,
    summarize_speedups,
)
from repro.analysis.breakdown import breakdown_fractions, estimate_breakdown_table

__all__ = [
    "format_table",
    "format_heatmap",
    "OperatorComparison",
    "compare_methods",
    "summarize_speedups",
    "HeatmapResult",
    "speedup_heatmap",
    "breakdown_fractions",
    "estimate_breakdown_table",
]
