"""Tests for the event-driven serving simulator (repro.serve.simulator).

The scenario mirrors the CI smoke run: a short summarization burst on the
small model, heavy enough that chunked prefill reaches the buckets where
overlap genuinely wins, light enough that the whole comparison runs in well
under a second.
"""

import json
from dataclasses import replace
from unittest import mock

import pytest

from repro import api
from repro.comm.topology import a800_nvlink
from repro.serve import (
    PlanCache,
    PoissonArrivals,
    ServeConfig,
    ServingSimulator,
    distribution_by_name,
)
from repro.serve.simulator import ITERATION_OVERHEAD_US


@pytest.fixture(scope="module")
def config():
    return ServeConfig(layers=2, max_batch_tokens=4096, max_batch_size=16,
                       topology=a800_nvlink(4))


@pytest.fixture(scope="module")
def requests():
    return PoissonArrivals(
        rate_rps=64.0,
        distribution=distribution_by_name("summarize"),
        seed=0,
        num_requests=16,
    ).generate()


@pytest.fixture(scope="module")
def results(config, requests):
    return {mode: ServingSimulator(config, mode=mode).run(requests)
            for mode in ("overlap", "non-overlap")}


class TestSimulation:
    def test_all_requests_complete(self, results, requests):
        for result in results.values():
            assert [r.request_id for r in result.records] == [r.request_id for r in requests]

    def test_event_times_are_causal(self, results, requests):
        arrivals = {r.request_id: r.arrival_time for r in requests}
        for result in results.values():
            for record in result.records:
                assert record.first_token_time > arrivals[record.request_id]
                assert record.finish_time >= record.first_token_time
                assert record.finish_time <= result.makespan_s

    def test_token_accounting(self, results, requests):
        expected = sum(r.prompt_tokens + r.output_tokens - 1 for r in requests)
        for result in results.values():
            assert result.total_batched_tokens == expected
            assert sum(result.token_buckets.values()) == result.iterations

    def test_deterministic_metrics_json(self, config, requests, results):
        rerun = ServingSimulator(config, mode="overlap").run(requests)
        assert json.dumps(rerun.to_dict()) == json.dumps(results["overlap"].to_dict())

    def test_rejects_unknown_mode(self, config):
        with pytest.raises(ValueError, match="mode must be one of"):
            ServingSimulator(config, mode="magic")


class TestPlanCacheBenefit:
    def test_fewer_tuner_invocations_than_iterations(self, results):
        overlap = results["overlap"]
        stats = overlap.plan_cache_stats
        assert stats["tuner_invocations"] < overlap.iterations
        assert stats["hits"] > stats["misses"]
        assert stats["hit_rate"] > 0.5

    def test_cache_is_a_pure_optimisation(self, config, requests, results):
        uncached = ServingSimulator(
            config, plan_cache=PlanCache(config.settings, capacity=0), mode="overlap"
        ).run(requests)
        assert json.dumps(uncached.metrics().to_dict()) == json.dumps(
            results["overlap"].metrics().to_dict()
        )
        assert uncached.plan_cache_stats["tuner_invocations"] > (
            results["overlap"].plan_cache_stats["tuner_invocations"]
        )


class TestPricingMemo:
    """Each (bucket, comm_factor) is priced once per simulator; an overlap-mode
    repeat replays the plan cache's accounting with ``repeat_lookups``."""

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("fault_preset", [None, "degraded-link"])
    def test_replayed_repeats_match_real_lookups(self, capacity, fault_preset):
        """Small caches evict between repeats, so the memo replays some and
        re-prices others; every payload number, ``plan_cache`` counters
        included, equals the run in which every repeat looks its plans up.
        Each bucket looks up two plans, so from capacity 4 on the LRU order
        the replays leave decides which plan is evicted."""
        args = dict(smoke=True, plan_cache=capacity, fault_preset=fault_preset)
        calls = []
        real = PlanCache.repeat_lookups

        def counted(cache, looked_up, repeats):
            calls.append(real(cache, looked_up, repeats))
            return calls[-1]

        with mock.patch.object(PlanCache, "repeat_lookups", counted):
            replayed = api.serve(**args).to_dict()
        with mock.patch.object(PlanCache, "repeat_lookups", lambda cache, looked_up, repeats: False):
            looked_up = api.serve(**args).to_dict()
        assert json.dumps(replayed, sort_keys=True) == json.dumps(looked_up, sort_keys=True)
        assert replayed["overlap"]["plan_cache"]["evictions"] > 0
        if capacity > 1:
            assert True in calls and False in calls  # both branches ran


class TestOverlapBeatsBaseline:
    def test_serving_level_latency_improves(self, results):
        overlap = results["overlap"].metrics()
        baseline = results["non-overlap"].metrics()
        assert overlap.e2e_latency.mean < baseline.e2e_latency.mean
        assert overlap.ttft.p99 <= baseline.ttft.p99
        assert results["overlap"].makespan_s <= results["non-overlap"].makespan_s

    def test_goodput_not_worse(self, results):
        overlap = results["overlap"].metrics()
        baseline = results["non-overlap"].metrics()
        assert overlap.goodput_requests_per_s >= baseline.goodput_requests_per_s


class TestIterationLatency:
    def test_overhead_is_paid_once_per_iteration(self, config):
        overhead = ITERATION_OVERHEAD_US * 1e-6
        one = ServingSimulator(replace(config, layers=1), mode="non-overlap")
        two = ServingSimulator(config, mode="non-overlap")
        per_layer = one.iteration_latency(512) - overhead
        assert per_layer > 0
        assert two.iteration_latency(512) - overhead == pytest.approx(2 * per_layer)

    def test_token_counts_in_one_bucket_cost_the_same(self, config):
        simulator = ServingSimulator(config, mode="non-overlap")
        assert simulator.iteration_latency(300) == simulator.iteration_latency(512)
        assert simulator.iteration_latency(513) > simulator.iteration_latency(512)


class TestServeConfig:
    def test_describe_mentions_the_parts(self, config):
        text = config.describe()
        assert "TP=4" in text and "A800" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(layers=0)
