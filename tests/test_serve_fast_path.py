"""Differential suite: the batched serving loop vs the per-iteration oracle.

``ServingSimulator`` commits iterations inline between boundary events and
collapses silent steady-decode runs in bulk; the oracle
``oracles.serve.serve_reference`` runs the same simulator with one heap
round-trip per iteration.  The two must be **bit-identical** -- the full
``ServingResult.to_dict()`` payload, including request records, token
buckets, plan-cache stats and fault accounting -- because the batched loop
performs exactly the per-iteration path's float additions and counter
updates, just without the event-queue detour.  Hypothesis drives random
traffic and batching limits through both loops, fault-free and under every
fault preset, with and without deadlines.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from oracles.serve import serve_reference
from repro.faults import FaultInjector, ResiliencePolicy, build_fault_preset, fault_presets
from repro.plans.cache import PlanCache
from repro.serve.arrivals import PoissonArrivals, distribution_by_name, length_distributions
from repro.serve.simulator import ServeConfig, ServingSimulator
from repro.sim.engine import EventEngine


def payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_both(config, requests, mode="non-overlap", faults_preset=None,
             deadline=None, fault_seed=0):
    """(production, oracle) results, each arm on its own simulator and faults."""

    def simulator():
        injector = None
        policy = ResiliencePolicy(deadline_s=deadline) if deadline is not None else None
        if faults_preset is not None:
            horizon = max(r.arrival_time for r in requests) + 1.0
            plan = build_fault_preset(faults_preset, horizon, seed=fault_seed)
            injector = FaultInjector(plan, policy=policy)
        return ServingSimulator(config, mode=mode, faults=injector, resilience=policy)

    return simulator().run(requests), serve_reference(simulator(), requests)


def with_engine_events(run):
    """``run()``'s result and the events its engines processed in total."""
    engines = []
    init = EventEngine.__init__

    def tracking_init(self):
        init(self)
        engines.append(self)

    with mock.patch.object(EventEngine, "__init__", tracking_init):
        result = run()
    return result, sum(engine.processed_events for engine in engines)


TRAFFIC = st.fixed_dictionaries(
    {
        "rate": st.sampled_from([4.0, 32.0, 256.0]),
        "requests": st.integers(min_value=1, max_value=16),
        "distribution": st.sampled_from(sorted(length_distributions())),
        "seed": st.integers(min_value=0, max_value=7),
    }
)
LIMITS = st.fixed_dictionaries(
    {
        "max_batch_tokens": st.sampled_from([64, 512, 4096]),
        "max_batch_size": st.sampled_from([2, 8, 16]),
    }
)


class TestFaultFreeBitIdentity:
    @hsettings(max_examples=40, deadline=None)
    @given(traffic=TRAFFIC, limits=LIMITS)
    def test_random_traffic(self, traffic, limits):
        config = ServeConfig(layers=1, **limits)
        requests = PoissonArrivals(
            rate_rps=traffic["rate"],
            distribution=distribution_by_name(traffic["distribution"]),
            seed=traffic["seed"],
            num_requests=traffic["requests"],
        ).generate()
        fast, reference = run_both(config, requests)
        assert payload(fast) == payload(reference)

    @hsettings(max_examples=20, deadline=None)
    @given(traffic=TRAFFIC, deadline=st.sampled_from([0.05, 0.5, 2.0]))
    def test_random_traffic_with_deadlines(self, traffic, deadline):
        config = ServeConfig(layers=1, max_batch_tokens=512, max_batch_size=8)
        requests = PoissonArrivals(
            rate_rps=traffic["rate"],
            distribution=distribution_by_name(traffic["distribution"]),
            seed=traffic["seed"],
            num_requests=traffic["requests"],
        ).generate()
        fast, reference = run_both(config, requests, deadline=deadline)
        assert payload(fast) == payload(reference)

    def test_overlap_mode_with_plan_cache(self):
        """The overlap arm (plan-cache lookups, repeat-hit bulk accounting)."""
        config = ServeConfig(layers=2, max_batch_tokens=4096, max_batch_size=16)
        requests = PoissonArrivals(
            rate_rps=32.0,
            distribution=distribution_by_name("chat"),
            seed=3,
            num_requests=24,
        ).generate()
        fast, reference = run_both(config, requests, mode="overlap")
        assert payload(fast) == payload(reference)
        assert fast.plan_cache_stats == reference.plan_cache_stats

    @pytest.mark.parametrize("capacity", [0, 1, 2, 3])
    def test_overlap_mode_with_a_small_plan_cache(self, capacity):
        """A cache that cannot keep one iteration's two plans looks every
        steady-decode repeat up again, so no collapsed run books hits."""
        config = ServeConfig(layers=2, max_batch_tokens=4096, max_batch_size=16)
        requests = PoissonArrivals(
            rate_rps=64.0,
            distribution=distribution_by_name("summarize"),
            seed=0,
            num_requests=24,
        ).generate()

        def simulator():
            return ServingSimulator(config, plan_cache=PlanCache(config.settings, capacity=capacity))

        fast = simulator().run(requests)
        reference = serve_reference(simulator(), requests)
        assert payload(fast) == payload(reference)
        if capacity < 2:
            assert fast.plan_cache_stats["hits"] == 0

    def test_both_arms_match_reference(self):
        config = ServeConfig(layers=1, max_batch_tokens=512, max_batch_size=8)
        requests = PoissonArrivals(
            rate_rps=64.0,
            distribution=distribution_by_name("summarize"),
            seed=1,
            num_requests=8,
        ).generate()
        for arm in ("overlap", "non-overlap"):
            fast = ServingSimulator(config, mode=arm).run(requests)
            reference = serve_reference(ServingSimulator(config, mode=arm), requests)
            assert payload(fast) == payload(reference)


class TestFaultedBitIdentity:
    @hsettings(max_examples=30, deadline=None)
    @given(
        preset=st.sampled_from(sorted(fault_presets())),
        traffic=TRAFFIC,
        fault_seed=st.integers(min_value=0, max_value=3),
    )
    def test_every_fault_preset(self, preset, traffic, fault_seed):
        config = ServeConfig(layers=1, max_batch_tokens=512, max_batch_size=8)
        requests = PoissonArrivals(
            rate_rps=traffic["rate"],
            distribution=distribution_by_name(traffic["distribution"]),
            seed=traffic["seed"],
            num_requests=traffic["requests"],
        ).generate()
        fast, reference = run_both(
            config, requests, faults_preset=preset, fault_seed=fault_seed
        )
        assert payload(fast) == payload(reference)

    @pytest.mark.parametrize("preset", sorted(fault_presets()))
    def test_faults_with_deadline_policy(self, preset):
        config = ServeConfig(layers=1, max_batch_tokens=4096, max_batch_size=16)
        requests = PoissonArrivals(
            rate_rps=64.0,
            distribution=distribution_by_name("summarize"),
            seed=7,
            num_requests=16,
        ).generate()
        fast, reference = run_both(
            config, requests, faults_preset=preset, deadline=1.0
        )
        assert payload(fast) == payload(reference)


class TestOracle:
    def test_reference_takes_one_event_per_iteration(self):
        """The oracle commits every iteration from the heap; production does not."""
        config = ServeConfig(layers=1)
        requests = PoissonArrivals(
            rate_rps=8.0,
            distribution=distribution_by_name("chat"),
            seed=0,
            num_requests=16,
        ).generate()
        fast, fast_events = with_engine_events(
            lambda: ServingSimulator(config, mode="non-overlap").run(requests)
        )
        reference, reference_events = with_engine_events(
            lambda: serve_reference(ServingSimulator(config, mode="non-overlap"), requests)
        )
        assert payload(fast) == payload(reference)
        assert reference_events >= reference.iterations
        assert fast_events < fast.iterations
