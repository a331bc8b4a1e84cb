"""Latency-share breakdowns of end-to-end estimates (paper Fig. 4).

Both helpers read :class:`~repro.e2e.estimator.WorkloadEstimate` objects
(anything with ``name`` and ``pattern_shares()``); shares come from the
non-overlap pricing, matching the paper's profiling figure.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.reporting import format_table

#: Column order of the Fig. 4 breakdown.
PATTERNS = ("GEMM+AR", "GEMM+RS", "GEMM+A2A", "others")


def breakdown_fractions(estimate) -> dict[str, float]:
    """The Fig. 4 fractions of one estimate, with every pattern present."""
    shares = estimate.pattern_shares()
    return {pattern: shares.get(pattern, 0.0) for pattern in PATTERNS}


def estimate_breakdown_table(estimates: Iterable) -> str:
    """Render the Fig. 4 latency shares of e2e estimates as a text table."""
    rows = [
        [estimate.name] + [f"{share * 100:.1f}%" for share in breakdown_fractions(estimate).values()]
        for estimate in estimates
    ]
    return format_table(["workload", *PATTERNS], rows, title="GEMM + collective latency share")
