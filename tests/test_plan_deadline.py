"""Wall-clock deadline on the plan search (``repro plan --deadline``).

A fake clock drives ``search_plan``'s deadline deterministically: each call
advances by a fixed step, so "the budget runs out after N priced batches"
becomes an exact statement rather than a timing-dependent one.
"""

import pytest

from repro import obs
from repro.cluster import ClusterSpec
from repro.plan import search_plan

SMOKE = dict(
    workload="llama3-training",
    cluster=ClusterSpec(gpus=8),
    layers=4,
    tp_degrees=(2, 4, 8),
    microbatch_counts=(2, 4, 8),
)


class FakeClock:
    """Monotonic clock advancing ``step`` seconds per reading."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture(scope="module")
def unbounded():
    return search_plan(**SMOKE)


@pytest.fixture
def fake_now(monkeypatch):
    """Drive the planner's deadline clock, :func:`repro.obs.now`, with a FakeClock."""
    monkeypatch.setattr(obs, "now", FakeClock(step=1.0))


class TestDeadlineTruncation:
    def test_no_deadline_is_never_truncated(self, unbounded):
        assert unbounded.space["truncated"] is False
        assert unbounded.meta["deadline_s"] is None
        assert "TRUNCATED" not in unbounded.summary_table()

    def test_fake_clock_truncates_after_budget(self, unbounded, fake_now):
        # The deadline check reads the clock once per batch; the constructor
        # reading burns 1s, so a 4.5s budget prices exactly 3 batches before
        # the 4th check (t=5.0) trips the deadline.
        report = search_plan(**SMOKE, deadline_s=4.5)
        assert report.space["truncated"] is True
        assert report.meta["deadline_s"] == 4.5
        total = unbounded.space["batches"]
        assert report.space["batches"] == total
        assert 0 < report.space["evaluated"] < total
        reasons = {p["reason"] for p in report.space["pruned"]}
        assert "wall-clock deadline exceeded" in reasons
        # Skipped batches are reported, never silently dropped.
        deadline_pruned = [p for p in report.space["pruned"]
                          if p["reason"] == "wall-clock deadline exceeded"]
        assert report.space["evaluated"] + len(report.space["pruned"]) == total
        assert len(deadline_pruned) >= 1
        assert "TRUNCATED" in report.summary_table()

    def test_truncated_search_returns_best_so_far_frontier(self, unbounded, fake_now):
        report = search_plan(**SMOKE, deadline_s=4.5)
        assert report.points
        assert report.frontier
        assert report.winner is not None
        # Batches are priced best-bound-first, so everything the truncated
        # search priced is a prefix of the unbounded search's pricing order
        # and the partial frontier is consistent with the full one.
        full_keys = {(p.tp, p.stages, p.microbatches, p.schedule, p.method)
                     for p in unbounded.points}
        partial_keys = {(p.tp, p.stages, p.microbatches, p.schedule, p.method)
                        for p in report.points}
        assert partial_keys <= full_keys

    def test_zero_deadline_prices_nothing(self, fake_now):
        report = search_plan(**SMOKE, deadline_s=0.0)
        assert report.space["truncated"] is True
        assert report.space["evaluated"] == 0
        assert report.winner is None
        assert len(report.space["pruned"]) == report.space["batches"]

    def test_generous_deadline_matches_unbounded_search(self, unbounded, fake_now):
        import json

        report = search_plan(**SMOKE, deadline_s=10_000.0)
        assert report.space["truncated"] is False
        bounded = report.to_dict()
        free = unbounded.to_dict()
        bounded["meta"].pop("deadline_s")
        free["meta"].pop("deadline_s")
        assert json.dumps(bounded, sort_keys=True) == json.dumps(free, sort_keys=True)


class TestDeadlineFacade:
    def test_api_plan_passes_deadline_through(self):
        import repro.api as api

        report = api.plan(smoke=True, deadline=0.0)
        assert report.space["truncated"] is True
        assert report.meta["deadline_s"] == 0.0
