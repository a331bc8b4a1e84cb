"""Pareto frontier of plan candidates: step latency vs. peak activation memory.

Every candidate the planner prices becomes a :class:`PlanPoint` -- one
(parallelism config, schedule, execution method) combination with its two
objective coordinates.  The frontier keeps the non-dominated subset under
*strict* dominance (better-or-equal on both axes, strictly better on at
least one); exact coordinate ties are collapsed to the deterministically
first config so the reported frontier never contains two points that
dominate -- or duplicate -- each other (the hypothesis suite asserts both).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

__all__ = ["PlanPoint", "pareto_frontier"]


@dataclass(frozen=True)
class PlanPoint:
    """One priced candidate configuration and its objective coordinates."""

    workload: str
    tp: int
    stages: int
    microbatches: int
    partition: tuple[int, ...]
    schedule: str
    method: str  # "overlap" | "non-overlap" -- the on/off axis of the search
    step_latency: float
    peak_activation_bytes: float
    bubble_ratio: float
    speedup: float

    @property
    def config_key(self) -> tuple:
        """Deterministic identity/tie-break key of the configuration."""
        return (
            self.workload,
            self.tp,
            self.stages,
            self.microbatches,
            self.partition,
            self.schedule,
            self.method,
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "tp": self.tp,
            "stages": self.stages,
            "microbatches": self.microbatches,
            "partition": list(self.partition),
            "schedule": self.schedule,
            "method": self.method,
            "step_latency": self.step_latency,
            "peak_activation_bytes": self.peak_activation_bytes,
            "bubble_ratio": self.bubble_ratio,
            "speedup": self.speedup,
        }


def pareto_frontier(points: Iterable[PlanPoint]) -> list[PlanPoint]:
    """The non-dominated subset, sorted by step latency ascending.

    One sweep over the latency-sorted points keeps a candidate exactly when
    it improves the running memory minimum: equal-latency/higher-memory
    points are dominated by the first of their latency class, and exact
    coordinate ties collapse to the config-key-first point.  The result
    contains no dominated and no duplicate coordinates by construction.
    """
    ordered: Sequence[PlanPoint] = sorted(
        points,
        key=lambda p: (p.step_latency, p.peak_activation_bytes, p.config_key),
    )
    frontier: list[PlanPoint] = []
    best_memory = float("inf")
    for point in ordered:
        if point.peak_activation_bytes < best_memory:
            frontier.append(point)
            best_memory = point.peak_activation_bytes
    return frontier
