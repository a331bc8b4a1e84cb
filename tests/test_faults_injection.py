"""Integration tests: fault injection through the serving simulator.

Three acceptance properties of the fault layer:

* **determinism** -- the same seed and the same :class:`FaultPlan` replay the
  chaos run byte-identically (:func:`verify_fault_replay`);
* **degeneracy** -- a fault-free plan plus a disengaged policy produces a
  result *bit-identical* to a plain (fault-unaware) run, for arbitrary
  seeded traffic (hypothesis);
* **monotonicity** -- injecting a crash never improves the run: makespan
  never shrinks and availability never exceeds one.
"""

import json

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.comm.topology import a800_nvlink
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    build_fault_preset,
    verify_fault_replay,
)
from repro.faults.plan import FaultEvent
from repro.serve import (
    PlanCache,
    PoissonArrivals,
    ServeConfig,
    ServingSimulator,
    distribution_by_name,
)


@pytest.fixture(scope="module")
def config():
    return ServeConfig(layers=2, max_batch_tokens=4096, max_batch_size=16,
                       topology=a800_nvlink(4))


def make_requests(seed: int = 0, num_requests: int = 12, rate_rps: float = 64.0):
    return PoissonArrivals(
        rate_rps=rate_rps,
        distribution=distribution_by_name("summarize"),
        seed=seed,
        num_requests=num_requests,
    ).generate()


def run(config, requests, faults=None, resilience=None):
    return ServingSimulator(
        config, plan_cache=PlanCache(), mode="overlap",
        faults=faults, resilience=resilience,
    ).run(list(requests))


def horizon_of(requests) -> float:
    return max(r.arrival_time for r in requests) + 1.0


class TestReplayDeterminism:
    @pytest.mark.parametrize("preset", ["replica-crash", "straggler",
                                        "degraded-link", "chaos"])
    def test_presets_replay_byte_identically(self, config, preset):
        requests = make_requests()
        plan = build_fault_preset(preset, horizon=horizon_of(requests))
        result = verify_fault_replay(config, requests, plan)
        assert result["matches"], result["checks"]

    def test_drop_storm_with_retries_replays(self, config):
        requests = make_requests()
        plan = build_fault_preset("drop-storm", horizon=horizon_of(requests))
        policy = ResiliencePolicy(retry=RetryPolicy(max_retries=2, seed=0),
                                  deadline_s=30.0, admission_limit=64)
        result = verify_fault_replay(config, requests, plan, policy)
        assert result["matches"], result["checks"]
        assert set(result["checks"]) == {"payload_bytes_identical",
                                         "makespan_identical",
                                         "iterations_identical"}


class TestFaultFreeDegeneracy:
    def strip(self, payload: dict) -> dict:
        payload = dict(payload)
        payload.pop("faults", None)
        payload.pop("failures", None)
        return payload

    def test_empty_plan_degenerates_bit_identically(self, config):
        requests = make_requests()
        plain = run(config, requests).to_dict()
        faulted = run(config, requests, faults=FaultInjector(FaultPlan())).to_dict()
        assert json.dumps(self.strip(faulted), sort_keys=True) == \
            json.dumps(plain, sort_keys=True)

    @hyp_settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           num_requests=st.integers(min_value=1, max_value=10))
    def test_degeneracy_holds_for_arbitrary_traffic(self, config, seed, num_requests):
        requests = make_requests(seed=seed, num_requests=num_requests)
        plain = run(config, requests).to_dict()
        faulted = run(config, requests, faults=FaultInjector(FaultPlan())).to_dict()
        assert json.dumps(self.strip(faulted), sort_keys=True) == \
            json.dumps(plain, sort_keys=True)


class TestCrashMonotonicity:
    """A crash never improves a *compute-bound* run.

    The qualifier matters: under arrival-bound traffic, continuous batching
    can repack the backlog a downtime window creates into fewer, fuller
    iterations and shave microseconds off the tail, so raw makespan is not
    monotone there.  With every request queued up front the batches are
    already maximally packed and downtime is pure delay.
    """

    @hyp_settings(max_examples=8, deadline=None)
    @given(start_frac=st.floats(min_value=0.0, max_value=0.9),
           duration_frac=st.floats(min_value=0.05, max_value=1.0))
    def test_crash_never_improves_the_run(self, config, start_frac, duration_frac):
        requests = make_requests(rate_rps=2048.0)
        free = run(config, requests)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash",
                       start=start_frac * free.makespan_s,
                       duration=max(1e-3, duration_frac * free.makespan_s)),
        ))
        faulted = run(config, requests, faults=FaultInjector(plan))
        assert faulted.makespan_s >= free.makespan_s
        assert faulted.fault_stats["availability"] <= 1.0
        # No resilience policy in play: every request still completes, so
        # goodput (completions / makespan) cannot improve under a crash.
        assert len(faulted.records) == len(free.records)
        free_goodput = len(free.records) / free.makespan_s
        faulted_goodput = len(faulted.records) / faulted.makespan_s
        assert faulted_goodput <= free_goodput


class TestOutagesAreEventsOnly:
    """A crash is its crash/recover event pair and nothing else: the compute
    timeline keeps no speed-0 copy of the outage."""

    @pytest.mark.parametrize("preset", ["replica-crash", "double-crash"])
    @pytest.mark.parametrize("warm_spares", [0, 1])
    def test_crash_leaves_the_compute_timeline_nominal(self, preset, warm_spares):
        plan = build_fault_preset(preset, horizon=10.0)
        injector = FaultInjector(plan, ResiliencePolicy(warm_spares=warm_spares))
        assert injector.downtime
        assert injector.compute.is_nominal
        for window in injector.downtime:
            start = window.start - 0.25
            work = window.duration + 0.5  # spans the whole outage
            assert injector.straggler_finish(start, work) == start + work


class TestResilienceMechanics:
    def test_drops_with_retries_recover_requests(self, config):
        requests = make_requests()
        plan = build_fault_preset("drop-storm", horizon=horizon_of(requests))
        policy = ResiliencePolicy(retry=RetryPolicy(max_retries=3, seed=0))
        result = run(config, requests, faults=FaultInjector(plan, policy),
                     resilience=policy)
        stats = result.fault_stats
        assert stats["retries"] > 0
        assert stats["attempts"] == stats["retries"] + len(requests)
        assert stats["retry_amplification"] > 1.0
        assert len(result.records) + len(result.failures) == len(requests)

    def test_drops_without_retries_fail_requests(self, config):
        requests = make_requests()
        plan = build_fault_preset("drop-storm", horizon=horizon_of(requests))
        policy = ResiliencePolicy(retry=RetryPolicy(max_retries=0))
        result = run(config, requests, faults=FaultInjector(plan, policy),
                     resilience=policy)
        assert result.fault_stats["dropped"] > 0
        assert all(f.outcome == "dropped" for f in result.failures)

    def test_tight_deadline_times_requests_out(self, config):
        requests = make_requests()
        policy = ResiliencePolicy(deadline_s=1e-3)
        result = run(config, requests, resilience=policy)
        assert result.fault_stats["timed_out"] == len(requests)
        assert not result.records
        ids = sorted(f.request_id for f in result.failures)
        assert ids == sorted(r.request_id for r in requests)

    def test_admission_limit_sheds_load(self, config):
        requests = make_requests()
        policy = ResiliencePolicy(admission_limit=1)
        result = run(config, requests, resilience=policy)
        assert result.fault_stats["shed"] > 0
        assert all(f.outcome == "shed" for f in result.failures)

    def test_warm_spares_shrink_recovery(self, config):
        requests = make_requests()
        horizon = horizon_of(requests)
        plan = build_fault_preset("double-crash", horizon=horizon)
        cold = run(config, requests, faults=FaultInjector(plan))
        policy = ResiliencePolicy(warm_spares=1, failover_delay_s=0.01)
        warm = run(config, requests, faults=FaultInjector(plan, policy),
                   resilience=policy)
        assert warm.fault_stats["failovers"] == 1
        assert cold.fault_stats["failovers"] == 0
        assert warm.fault_stats["recovery_s"]["mean"] < \
            cold.fault_stats["recovery_s"]["mean"]
        assert warm.makespan_s <= cold.makespan_s

    def test_crash_wastes_inflight_work(self, config):
        # Compute-bound traffic keeps the engine busy, so a mid-run crash
        # is guaranteed to abort an inflight iteration.
        requests = make_requests(rate_rps=2048.0)
        free = run(config, requests)
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", start=0.5 * free.makespan_s,
                       duration=0.25 * free.makespan_s),
        ))
        result = run(config, requests, faults=FaultInjector(plan))
        stats = result.fault_stats
        assert stats["crashes"] == 1
        assert stats["wasted_iterations"] >= 1
        assert stats["wasted_tokens"] > 0
        assert 0.0 < stats["availability"] < 1.0


class TestServeFacade:
    def test_fault_preset_report_carries_degraded_axis(self):
        import repro.api as api

        report = api.serve(smoke=True, fault_preset="replica-crash")
        summary = report.fault_summary()
        assert summary is not None
        for key in ("availability", "crashes", "retry_amplification",
                    "goodput_under_failure_rps", "fault_free_goodput_rps",
                    "goodput_ratio_vs_fault_free"):
            assert key in summary
        assert 0.0 < summary["availability"] < 1.0
        assert summary["goodput_ratio_vs_fault_free"] <= 1.0
        payload = report.to_dict()
        assert "faults" in payload and "fault-free" in payload
        text = report.summary_table()
        assert "faults" in text and "degraded" in text

    def test_fault_and_preset_are_mutually_exclusive(self, tmp_path):
        import repro.api as api

        path = FaultPlan().save(tmp_path / "plan.json")
        with pytest.raises(ValueError, match="not both"):
            api.serve(smoke=True, faults=str(path), fault_preset="chaos")
