"""Analysis helpers: speedup surveys, heatmaps, breakdowns and text reports.

The speedup surveys (Figs. 10, 11, 13, 16) price single operators through
:class:`~repro.core.overlap.FlashOverlapOperator`; the Fig. 4 breakdowns
render :class:`~repro.e2e.estimator.WorkloadEstimate` objects, so every
model-level number comes from :class:`~repro.e2e.estimator.EndToEndEstimator`.
"""
