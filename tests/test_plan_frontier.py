"""Property-based invariants of the planner's Pareto frontier.

For random clouds of (step latency, peak activation memory) points the
frontier must satisfy the defining invariants of Pareto optimality:

* no frontier point dominates another frontier point;
* every dropped point is dominated by (or coordinate-ties with) a kept one;
* the frontier is a subset of the input and free of coordinate duplicates;
* the extreme points (fastest; smallest) always survive;
* the result is deterministic and order-independent.

Plus the unit semantics of the activation-memory model the points carry.
"""

from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from oracles.frontier import dominates
from repro.plan.frontier import PlanPoint, pareto_frontier
from repro.plan.memory import peak_activation_bytes, stage_activation_bytes

LATENCY = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False, allow_infinity=False)
MEMORY = st.integers(min_value=1, max_value=1 << 30)


def _point(index: int, latency: float, memory: float) -> PlanPoint:
    return PlanPoint(
        workload="llama3-training",
        tp=2,
        stages=2,
        microbatches=1 + index,
        partition=(1, 1),
        schedule="1f1b",
        method="overlap",
        step_latency=latency,
        peak_activation_bytes=float(memory),
        bubble_ratio=0.1,
        speedup=1.0,
    )


POINTS = st.lists(st.tuples(LATENCY, MEMORY), min_size=1, max_size=40).map(
    lambda pairs: [_point(i, lat, mem) for i, (lat, mem) in enumerate(pairs)]
)


@given(POINTS)
@hsettings(max_examples=300, deadline=None)
def test_no_frontier_point_dominates_another(points):
    frontier = pareto_frontier(points)
    assert frontier, "a non-empty cloud always has a frontier"
    for a in frontier:
        for b in frontier:
            assert not dominates(a, b)


@given(POINTS)
@hsettings(max_examples=300, deadline=None)
def test_dropped_points_are_covered(points):
    frontier = pareto_frontier(points)
    kept = {point.config_key for point in frontier}
    for point in points:
        if point.config_key in kept:
            continue
        assert any(
            dominates(keeper, point)
            or (keeper.step_latency == point.step_latency
                and keeper.peak_activation_bytes == point.peak_activation_bytes)
            for keeper in frontier
        )


@given(POINTS)
@hsettings(max_examples=200, deadline=None)
def test_frontier_is_subset_without_duplicate_coordinates(points):
    frontier = pareto_frontier(points)
    keys = {point.config_key for point in points}
    coordinates = [(p.step_latency, p.peak_activation_bytes) for p in frontier]
    assert all(point.config_key in keys for point in frontier)
    assert len(set(coordinates)) == len(coordinates)


@given(POINTS)
@hsettings(max_examples=200, deadline=None)
def test_extremes_survive(points):
    frontier = pareto_frontier(points)
    assert min(p.step_latency for p in frontier) == min(p.step_latency for p in points)
    assert (min(p.peak_activation_bytes for p in frontier)
            == min(p.peak_activation_bytes for p in points))


@given(POINTS)
@hsettings(max_examples=100, deadline=None)
def test_frontier_is_order_independent(points):
    forward = pareto_frontier(points)
    reversed_ = pareto_frontier(list(reversed(points)))
    assert {p.config_key for p in forward} == {p.config_key for p in reversed_}


def test_dominates_is_strict():
    a = _point(0, 0.1, 100)
    b = _point(1, 0.2, 200)
    tie = _point(2, 0.1, 100)
    assert dominates(a, b) and not dominates(b, a)
    assert not dominates(a, tie) and not dominates(tie, a)
    assert not dominates(a, a)


class TestActivationMemory:
    def test_recompute_keeps_boundary_only(self):
        # GPipe recomputation stores one boundary activation per in-flight
        # microbatch, independent of the stage depth.
        per_stage = stage_activation_bytes((3, 1), 100.0, (4, 2), recompute=True)
        assert per_stage == (400.0, 200.0)

    def test_no_recompute_scales_with_stage_depth(self):
        per_stage = stage_activation_bytes((3, 1), 100.0, (4, 2), recompute=False)
        assert per_stage == (1200.0, 200.0)

    def test_peak_is_max_over_stages(self):
        assert peak_activation_bytes((3, 1), 100.0, (4, 2), recompute=False) == 1200.0
