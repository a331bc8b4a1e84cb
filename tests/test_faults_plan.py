"""Unit tests for the fault-model layer (repro.faults) in isolation.

Covers the versioned :class:`FaultPlan` schema (validation, round-trips,
seeded generation, presets), the resilience policy knobs, and the compiled
:class:`SpeedTimeline` / :class:`FaultInjector` queries.
"""

import json

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    ResiliencePolicy,
    RetryPolicy,
    build_fault_preset,
    fault_presets,
    parse_retry_policy,
)
from repro.faults.plan import FAULT_KINDS, FaultEvent
from repro.faults.timeline import SpeedTimeline, SpeedWindow


class TestFaultEvent:
    def test_round_trip(self):
        event = FaultEvent(kind="straggler", start=1.0, duration=2.0, factor=1.5)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor", start=0.0, duration=1.0)

    def test_crash_needs_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(kind="crash", start=0.0, duration=0.0)

    def test_straggler_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(kind="straggler", start=0.0, duration=1.0, factor=0.5)

    def test_degraded_link_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(kind="degraded-link", start=0.0, duration=1.0, factor=0.0)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(kind="degraded-link", start=0.0, duration=1.0, factor=1.5)

    def test_drop_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultEvent(kind="drop", start=0.0, duration=1.0, probability=1.5)

    def test_end_property(self):
        assert FaultEvent(kind="crash", start=1.0, duration=0.5).end == 1.5

    def test_non_finite_numbers_rejected(self):
        base = {"kind": "straggler", "start": 1.0, "duration": 1.0, "factor": 2.0}
        for field in ("start", "duration", "factor", "probability"):
            for value in ("inf", "-inf", "nan"):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    FaultEvent.from_dict({**base, field: value})
        # A finite start and duration can still overflow the window's end.
        with pytest.raises(ValueError, match="end must be finite"):
            FaultEvent(kind="straggler", start=1e308, duration=1e308, factor=2.0)


class TestFaultPlan:
    def test_overlapping_crashes_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(events=(
                FaultEvent(kind="crash", start=0.0, duration=2.0),
                FaultEvent(kind="crash", start=1.0, duration=1.0),
            ))

    def test_of_kind_sorted_by_start(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="straggler", start=5.0, duration=1.0, factor=2.0),
            FaultEvent(kind="straggler", start=1.0, duration=1.0, factor=2.0),
        ))
        assert [e.start for e in plan.of_kind("straggler")] == [1.0, 5.0]

    def test_fault_free(self):
        empty = FaultPlan()
        injector = FaultInjector(empty)
        assert (injector.crashes, injector.downtime) == (0, [])
        assert injector.compute.is_nominal
        assert injector.availability(10.0) == 1.0

    def test_save_load_round_trip(self, tmp_path):
        plan = build_fault_preset("replica-crash", horizon=10.0)
        path = plan.save(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded == plan
        # Serialized form is stable (sorted keys, trailing newline).
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["version"] == plan.version

    def test_unbounded_straggler_fails_to_load(self, tmp_path):
        # An infinite factor and duration would compile to a zero-speed
        # window that never ends.
        path = tmp_path / "plan.json"
        path.write_text(
            '{"events": [{"kind": "straggler", "start": 0.5,'
            ' "duration": Infinity, "factor": "inf"}]}'
        )
        with pytest.raises(ValueError, match="must be finite"):
            FaultPlan.load(path)

    def test_version_mismatch_rejected(self):
        payload = FaultPlan().to_dict()
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict(payload)

    def test_generate_is_seed_deterministic(self):
        kwargs = dict(horizon=100.0, crash_rate=0.05, recovery_s=2.0,
                      straggler_rate=0.05, drop_probability=0.1)
        first = FaultPlan.generate(seed=7, **kwargs)
        second = FaultPlan.generate(seed=7, **kwargs)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)
        assert FaultPlan.generate(seed=8, **kwargs) != first

    def test_generate_crash_windows_disjoint(self):
        plan = FaultPlan.generate(horizon=200.0, seed=3, crash_rate=0.2, recovery_s=4.0)
        crashes = plan.of_kind("crash")
        for left, right in zip(crashes, crashes[1:]):
            assert left.end <= right.start

    def test_presets_catalogued(self):
        presets = fault_presets()
        for name in ("replica-crash", "double-crash", "straggler",
                     "degraded-link", "drop-storm", "chaos"):
            assert name in presets
            plan = build_fault_preset(name, horizon=10.0)
            for event in plan.events:
                assert event.kind in FAULT_KINDS

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown fault preset"):
            build_fault_preset("nope", horizon=10.0)


class TestRetryPolicy:
    def test_delay_grows_with_attempt(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.0)
        assert policy.delay(2, request_id=0) == pytest.approx(0.2)
        assert policy.delay(3, request_id=0) > policy.delay(2, request_id=0)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=1.0, jitter=0.5, seed=1)
        once = policy.delay(1, request_id=42)
        again = policy.delay(1, request_id=42)
        assert once == again
        assert 0.1 <= once <= 0.15
        assert policy.delay(1, request_id=43) != once

    def test_parse_spec(self):
        policy = parse_retry_policy("retries=5,backoff=0.2,multiplier=3,jitter=0", seed=9)
        assert policy.max_retries == 5
        assert policy.backoff_s == pytest.approx(0.2)
        assert policy.multiplier == pytest.approx(3.0)
        assert policy.jitter == 0.0
        assert policy.seed == 9

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            parse_retry_policy("retries=1,flux=2")

    @pytest.mark.parametrize("field,value,message", [
        ("backoff_s", float("nan"), "backoff_s must be finite and non-negative, got nan"),
        ("backoff_s", float("inf"), "backoff_s must be finite and non-negative, got inf"),
        ("multiplier", float("nan"), "multiplier must be finite and >= 1, got nan"),
        ("multiplier", float("inf"), "multiplier must be finite and >= 1, got inf"),
    ])
    def test_rejects_non_finite_numbers(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RetryPolicy(**{field: value})


class TestResiliencePolicy:
    def test_engaged_flag(self):
        assert not ResiliencePolicy().engaged
        assert ResiliencePolicy(deadline_s=1.0).engaged
        assert ResiliencePolicy(admission_limit=4).engaged

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(admission_limit=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(warm_spares=-1)

    @pytest.mark.parametrize("field,value,message", [
        ("deadline_s", float("nan"), "deadline_s must be finite and positive when set, got nan"),
        ("deadline_s", float("inf"), "deadline_s must be finite and positive when set, got inf"),
        ("failover_delay_s", float("nan"),
         "failover_delay_s must be finite and non-negative, got nan"),
        ("failover_delay_s", float("inf"),
         "failover_delay_s must be finite and non-negative, got inf"),
    ])
    def test_rejects_non_finite_numbers(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ResiliencePolicy(**{field: value})


class TestSpeedTimeline:
    def test_nominal_is_exact(self):
        timeline = SpeedTimeline(())
        assert timeline.is_nominal
        assert timeline.finish_time(1.25, 0.5) == 1.75  # bit-exact, not approx

    def test_slowdown_stretches_work(self):
        timeline = SpeedTimeline((SpeedWindow(start=0.0, end=10.0, speed=0.5),))
        assert timeline.finish_time(0.0, 1.0) == pytest.approx(2.0)

    def test_concurrent_windows_compose_multiplicatively(self):
        # Two concurrent 2x stragglers run the resource at 0.25 speed.
        timeline = SpeedTimeline((
            SpeedWindow(start=0.0, end=10.0, speed=0.5),
            SpeedWindow(start=0.0, end=4.0, speed=0.5),
        ))
        assert timeline.finish_time(0.0, 1.0) == pytest.approx(4.0)
        # Past the overlap only the first window applies.
        assert timeline.finish_time(4.0, 1.0) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="precede"):
            SpeedWindow(start=2.0, end=2.0, speed=0.5)
        for speed in (0.0, -0.5):
            with pytest.raises(ValueError, match="positive"):
                SpeedWindow(start=0.0, end=1.0, speed=speed)
        with pytest.raises(ValueError, match="non-negative"):
            SpeedTimeline(()).finish_time(0.0, -1.0)


class TestFaultInjector:
    def test_downtime_and_recovery(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", start=2.0, duration=1.0),))
        injector = FaultInjector(plan)
        assert injector.is_down(2.5)
        assert not injector.is_down(3.5)
        assert injector.next_up(2.5) == pytest.approx(3.0)
        assert injector.availability(10.0) == pytest.approx(0.9)

    def test_availability_counts_every_outage_within_the_horizon(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", start=1.0, duration=1.0),
            FaultEvent(kind="crash", start=7.0, duration=2.0),
        ))
        injector = FaultInjector(plan)
        assert injector.availability(8.0) == pytest.approx(0.75)  # 1 s + 1 s of 8 s
        assert injector.availability(10.0) == pytest.approx(0.7)
        assert injector.availability(0.0) == 1.0

    def test_outage_windows_are_half_open(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", start=2.0, duration=1.0),
            FaultEvent(kind="crash", start=3.0, duration=1.0),
        ))
        injector = FaultInjector(plan)
        assert not injector.is_down(1.999)
        assert injector.is_down(2.0) and injector.is_down(3.0)  # back to back
        assert not injector.is_down(4.0)

    def test_drop_windows_compose_independently(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="drop", start=0.0, duration=4.0, probability=0.5),
            FaultEvent(kind="drop", start=2.0, duration=4.0, probability=0.5),
        ))
        injector = FaultInjector(plan)
        assert injector.drop_probability_at(1.0) == pytest.approx(0.5)
        assert injector.drop_probability_at(3.0) == pytest.approx(0.75)
        assert injector.drop_probability_at(7.0) == 0.0
        certain = FaultPlan(events=(
            FaultEvent(kind="drop", start=0.0, duration=1.0, probability=1.0),
        ))
        assert all(FaultInjector(certain).drops(i, 1, 0.5) for i in range(8))

    def test_warm_spares_shrink_outages(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", start=2.0, duration=1.0),))
        policy = ResiliencePolicy(warm_spares=1, failover_delay_s=0.05)
        injector = FaultInjector(plan, policy)
        assert injector.failovers == 1
        assert injector.availability(10.0) > 0.99

    def test_straggling_resource_stretches_the_timeline(self):
        # Two back-to-back 1 s iterations inside a 2x straggler window.
        plan = FaultPlan(events=(
            FaultEvent(kind="straggler", start=0.0, duration=10.0, factor=2.0),
        ))
        injector = FaultInjector(plan)
        first = injector.straggler_finish(0.0, 1.0)
        assert first == pytest.approx(2.0)
        assert injector.straggler_finish(first, 1.0) == pytest.approx(4.0)
        # Past the window the replica runs at nominal speed again.
        assert injector.straggler_finish(10.0, 1.0) == 11.0

    def test_nominal_profile_changes_nothing(self):
        # No stragglers, or a factor-1 straggler: bit-exact start + work.
        unit = FaultEvent(kind="straggler", start=0.0, duration=10.0, factor=1.0)
        for plan in (FaultPlan(), FaultPlan(events=(unit,))):
            injector = FaultInjector(plan)
            assert injector.compute.is_nominal
            assert injector.straggler_finish(0.1, 0.2) == 0.1 + 0.2

    def test_comm_factor_composes(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="degraded-link", start=0.0, duration=4.0, factor=0.5),
            FaultEvent(kind="degraded-link", start=2.0, duration=4.0, factor=0.8),
        ))
        injector = FaultInjector(plan)
        assert injector.comm_factor_at(1.0) == pytest.approx(0.5)
        assert injector.comm_factor_at(3.0) == pytest.approx(0.5)  # min, not product
        assert injector.comm_factor_at(5.0) == pytest.approx(0.8)
        assert injector.comm_factor_at(9.0) == 1.0

    def test_drops_are_deterministic(self):
        plan = FaultPlan(seed=5, events=(
            FaultEvent(kind="drop", start=0.0, duration=10.0, probability=0.5),
        ))
        injector = FaultInjector(plan)
        decisions = [injector.drops(request_id=i, attempt=1, time=1.0) for i in range(64)]
        assert decisions == [injector.drops(request_id=i, attempt=1, time=1.0) for i in range(64)]
        assert any(decisions) and not all(decisions)
        # Outside the window nothing drops.
        assert not any(injector.drops(request_id=i, attempt=1, time=11.0) for i in range(64))
