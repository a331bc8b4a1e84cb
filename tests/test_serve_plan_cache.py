"""Tests for the exact-key LRU plan cache and token bucketing (repro.plans.cache)."""

import pytest

from repro.comm.primitives import CollectiveKind
from repro.core.baselines import NonOverlapBaseline
from repro.core.executor import OverlapExecutor
from repro.core.tuner import GemmShapeCache, PredictiveTuner
from repro.plans.cache import MIN_BUCKET_TOKENS, PlanCache, bucket_tokens


class TestBucketing:
    @pytest.mark.parametrize(
        "tokens,expected",
        [(1, 16), (15, 16), (16, 16), (17, 32), (100, 128), (1000, 1024), (1024, 1024)],
    )
    def test_power_of_two_rounding(self, tokens, expected):
        assert bucket_tokens(tokens) == expected

    def test_bucket_is_the_smallest_edge_covering_the_count(self):
        for tokens in range(1, 4097):
            bucket = bucket_tokens(tokens)
            assert bucket >= max(tokens, MIN_BUCKET_TOKENS)
            assert bucket & (bucket - 1) == 0  # a power of two
            assert bucket == MIN_BUCKET_TOKENS or bucket // 2 < tokens

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bucket_tokens(0)


@pytest.fixture
def problem(small_problem):
    """The conftest small problem (m=32)."""
    return small_problem


def at_tokens(problem, m):
    from dataclasses import replace

    return problem.with_shape(replace(problem.shape, m=m))


def varied(problem, field):
    """``problem`` with one latency input changed."""
    from dataclasses import replace

    if field in ("n", "k"):
        return problem.with_shape(replace(problem.shape, **{field: 2 * getattr(problem.shape, field)}))
    changes = {
        "collective": CollectiveKind.REDUCE_SCATTER,
        "dtype_bytes": 2 * problem.dtype_bytes,
        "imbalance": 1.25,
    }
    return replace(problem, **{field: changes[field]})


class TestLookup:
    def test_equal_problem_is_a_hit(self, problem, fast_settings):
        cache = PlanCache(fast_settings, capacity=4)
        first = cache.lookup(at_tokens(problem, 32))
        second = cache.lookup(at_tokens(problem, 32))  # a fresh, equal problem
        assert (cache.hits, cache.misses) == (1, 1)
        assert second is first
        assert cache.tuner_invocations == 1

    def test_distinct_m_misses(self, problem, fast_settings):
        """Keys are exact: M is never rounded, even within one token bucket."""
        cache = PlanCache(fast_settings, capacity=4)
        plans = [cache.lookup(at_tokens(problem, m)) for m in (17, 32)]
        assert (cache.hits, cache.misses) == (0, 2)
        assert len(cache) == 2
        assert [plan.problem.shape.m for plan in plans] == [17, 32]

    @pytest.mark.parametrize("field", ["n", "k", "collective", "dtype_bytes", "imbalance"])
    def test_key_separates_every_latency_input(self, problem, fast_settings, field):
        cache = PlanCache(fast_settings)
        other = varied(problem, field)
        assert cache.key(other) != cache.key(problem)
        assert cache.key(varied(problem, field)) == cache.key(other)

    def test_plan_is_priced_at_the_exact_shape(self, problem, fast_settings):
        """A token count between bucket edges is tuned and simulated as given."""
        exact = at_tokens(problem, 17)
        plan = PlanCache(fast_settings).lookup(exact)
        assert plan.problem == exact
        baseline = NonOverlapBaseline(fast_settings)
        assert plan.non_overlap_latency == baseline.latency(exact)
        assert plan.non_overlap_latency != baseline.latency(at_tokens(problem, 32))
        assert plan.theoretical_latency == OverlapExecutor(exact, fast_settings).theoretical_latency()

    def test_plan_never_slower_than_baseline(self, problem, fast_settings):
        cache = PlanCache(fast_settings, capacity=4)
        for m in (16, 32, 64):
            plan = cache.lookup(at_tokens(problem, m))
            assert plan.overlap_latency <= plan.non_overlap_latency
            baseline = NonOverlapBaseline(fast_settings).latency(plan.problem)
            assert plan.non_overlap_latency == baseline

    def test_capacity_zero_disables_caching(self, problem, fast_settings):
        cache = PlanCache(fast_settings, capacity=0)
        cache.lookup(problem)
        cache.lookup(problem)
        assert (cache.hits, cache.misses) == (0, 2)
        assert len(cache) == 0
        assert cache.tuner_invocations == 2


class TestLRUEviction:
    def test_eviction_order_is_least_recently_used(self, problem, fast_settings):
        cache = PlanCache(fast_settings, capacity=2)
        cache.lookup(at_tokens(problem, 16))  # A
        cache.lookup(at_tokens(problem, 32))  # B
        cache.lookup(at_tokens(problem, 16))  # touch A: B is now LRU

        cache.lookup(at_tokens(problem, 64))  # C evicts B
        assert cache.evictions == 1
        cache.lookup(at_tokens(problem, 16))  # A survived: C is now LRU
        assert (cache.hits, cache.misses) == (2, 3)

        cache.lookup(at_tokens(problem, 32))  # B was evicted: tunes again
        assert cache.misses == 4
        assert cache.evictions == 2
        assert cache.tuner_invocations == 4

    def test_counters_and_stats(self, problem, fast_settings):
        cache = PlanCache(fast_settings, capacity=1)
        cache.lookup(at_tokens(problem, 16))
        cache.lookup(at_tokens(problem, 16))
        cache.lookup(at_tokens(problem, 32))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["evictions"] == 1
        assert stats["lookups"] == 3
        assert stats["hit_rate"] == pytest.approx(1 / 3)
        assert stats["size"] == 1
        assert stats["capacity"] == 1
        assert stats["tuner_invocations"] == 2

    def test_count_repeat_hits_bulk_accounts_silent_lookups(self, problem, fast_settings):
        """The serving fast path replays collapsed steady-decode iterations as
        bulk warm hits instead of re-issuing each lookup."""
        cache = PlanCache(fast_settings, capacity=4)
        cache.lookup(problem)  # one real miss warms the bucket
        cache.count_repeat_hits(3)
        assert (cache.hits, cache.misses) == (3, 1)
        assert cache.lookups == 4
        assert cache.tuner_invocations == 1
        stats = cache.stats()
        assert stats["hits"] == 3
        assert stats["hit_rate"] == pytest.approx(3 / 4)

    def test_count_repeat_hits_non_positive_is_a_noop(self, problem, fast_settings):
        cache = PlanCache(fast_settings, capacity=4)
        cache.lookup(problem)
        cache.count_repeat_hits(0)
        cache.count_repeat_hits(-2)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.lookups == 1


class TestRepeatLookups:
    """``repeat_lookups`` replays earlier lookups' accounting without re-keying."""

    @pytest.mark.parametrize("repeats", [1, 4])
    def test_moves_and_counts_like_the_real_lookups(self, problem, fast_settings, repeats):
        problems = [at_tokens(problem, m) for m in (16, 32, 64)]
        replayed, looked_up = PlanCache(fast_settings, capacity=3), PlanCache(fast_settings, capacity=3)
        results = [(replayed.key(p), replayed.lookup(p)) for p in problems]
        for p in problems:
            looked_up.lookup(p)
        # Repeat the last lookup, then the first: both move to the LRU end in that order.
        assert replayed.repeat_lookups([results[2], results[0]], repeats)
        for _ in range(repeats):
            looked_up.lookup(problems[2])
            looked_up.lookup(problems[0])
        assert list(replayed._entries) == list(looked_up._entries)
        assert replayed.stats() == looked_up.stats()
        assert (replayed.hits, replayed.misses) == (2 * repeats, 3)

    def test_an_evicted_or_rebuilt_plan_changes_nothing(self, problem, fast_settings):
        cache = PlanCache(fast_settings, capacity=1)
        a, b = at_tokens(problem, 16), at_tokens(problem, 32)
        first = (cache.key(a), cache.lookup(a))
        cache.lookup(b)  # evicts a
        before = (list(cache._entries), cache.stats())
        assert not cache.repeat_lookups([first], 1)
        assert (list(cache._entries), cache.stats()) == before
        rebuilt = cache.lookup(a)  # a again, as a new plan object
        assert rebuilt is not first[1]
        before = (list(cache._entries), cache.stats())
        assert not cache.repeat_lookups([first], 1)
        assert (list(cache._entries), cache.stats()) == before
        assert cache.repeat_lookups([(first[0], rebuilt)], 1)
        assert cache.hits == 1


class TestCacheHitIdenticalToFreshTune:
    def test_hit_equals_fresh_plan_bit_for_bit(self, problem, fast_settings):
        fresh_cache = PlanCache(fast_settings, capacity=4)
        fresh = fresh_cache.lookup(problem)

        cache = PlanCache(fast_settings, capacity=4)
        cache.lookup(at_tokens(problem, 32))  # miss tunes an equal problem
        hit = cache.lookup(problem)
        assert cache.hits == 1

        assert hit.tuning == fresh.tuning
        assert hit.problem == fresh.problem
        assert hit.overlap_latency == fresh.overlap_latency
        assert hit.non_overlap_latency == fresh.non_overlap_latency


class TestWarmStart:
    def test_warm_start_skips_the_tuner(self, problem, fast_settings):
        warm = GemmShapeCache()
        warm.add(problem.shape, PredictiveTuner(fast_settings).tune(problem))

        cache = PlanCache(fast_settings, capacity=4, warm_start=warm)
        cache.lookup(problem)
        assert cache.tuner_invocations == 0
        assert cache.warm_start_hits == 1
        assert cache.misses == 1  # still a plan-cache miss, served from warm start

    def test_fresh_tunes_feed_the_warm_start(self, problem, fast_settings):
        warm = GemmShapeCache()
        cache = PlanCache(fast_settings, capacity=4, warm_start=warm)
        cache.lookup(problem)
        assert cache.tuner_invocations == 1
        assert len(warm) == 1

    def test_warm_start_use_overlap_is_revalidated(self, problem, fast_settings):
        """A warm entry's overlap decision (possibly from another platform) is
        re-checked against the ground-truth executor in *both* directions."""
        from dataclasses import replace

        honest = PlanCache(fast_settings, capacity=4).lookup(problem)

        tuned = PredictiveTuner(fast_settings).tune(problem)
        warm = GemmShapeCache()
        # Persist the entry with the overlap decision flipped.
        warm.add(problem.shape, replace(tuned, use_overlap=not honest.tuning.use_overlap))

        plan = PlanCache(fast_settings, capacity=4, warm_start=warm).lookup(problem)
        assert plan.tuning.use_overlap == honest.tuning.use_overlap
        assert plan.overlap_latency == honest.overlap_latency
