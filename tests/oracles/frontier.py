"""Strict Pareto dominance, the definition the planner's frontier is held to.

:func:`repro.plan.frontier.pareto_frontier` keeps the non-dominated points in
one sweep over the latency-sorted cloud and never compares two points
pairwise.  This oracle states dominance directly, so the frontier suites can
check every pair of kept and dropped points against it.
"""

from __future__ import annotations

from repro.plan.frontier import PlanPoint


def dominates(a: PlanPoint, b: PlanPoint) -> bool:
    """True when ``a`` strictly dominates ``b`` (<= both axes, < in one)."""
    if a.step_latency > b.step_latency or a.peak_activation_bytes > b.peak_activation_bytes:
        return False
    return (
        a.step_latency < b.step_latency
        or a.peak_activation_bytes < b.peak_activation_bytes
    )
