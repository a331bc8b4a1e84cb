"""Shared store of tuned, pre-simulated overlap plans.

Both online serving and the end-to-end estimator face the same problem: many
"GEMM + collective" instances, few *distinct* ones.  Continuous batching
produces a new GEMM ``M`` every iteration but the values cluster; a
transformer stack repeats the same layer (and therefore the exact same
operator shapes) dozens of times.  Re-running the predictive tuner per
instance would put a milliseconds-scale search on the critical path, so a
:class:`PlanCache` tunes each distinct problem once and serves every repeat
from the cache -- the paper's shape-cache reuse argument (Sec. 4.2.2) applied
at system granularity.

The key is the exact problem, so repeated layers reuse their plans while the
simulated latency stays that of the true shape.  Serving rounds each
iteration's token count up to a power-of-two bucket edge
(:func:`bucket_tokens`) before it builds the problems it looks up, so
decode iterations whose token counts cluster share one plan per bucket.

The cache is LRU with hit/miss/evict counters, can warm-start from a
persisted :class:`~repro.core.tuner.GemmShapeCache` (the offline tuning
artifact the sweep subsystem already writes), and stores each entry as the
:class:`~repro.core.overlap.PricedPlan` of
:func:`~repro.core.overlap.price_plan`, so a consumer's per-instance cost is
a dictionary lookup.  ``price_plan`` checks the tuner's (or a warm-start
entry's) overlap-vs-fallback decision against the ground-truth executor --
the tiny decode-dominated GEMMs are where the predictor errs most -- so a
cached plan is never slower than the non-overlap baseline.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.overlap import PricedPlan, price_plan
from repro.core.tuner import GemmShapeCache, PredictiveTuner


#: Smallest token bucket of the serving plan lookups (powers of two upwards).
MIN_BUCKET_TOKENS = 16


def bucket_tokens(tokens: int) -> int:
    """Round a token count up to the next power-of-two bucket edge."""
    if tokens < 1:
        raise ValueError("tokens must be >= 1")
    bucket = MIN_BUCKET_TOKENS
    while bucket < tokens:
        bucket *= 2
    return bucket


class PlanCache:
    """LRU cache mapping problems to tuned overlap plans.

    ``capacity=0`` disables caching entirely (every lookup tunes afresh),
    which is the "no plan cache" / "no reuse" arm of the serving and e2e
    benchmarks.  A ``warm_start`` :class:`GemmShapeCache` short-circuits tuner
    invocations for shapes close to an already-tuned entry.
    """

    def __init__(
        self,
        settings: OverlapSettings = DEFAULT_SETTINGS,
        capacity: int = 64,
        warm_start: GemmShapeCache | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.settings = settings
        self.capacity = capacity
        self.warm_start = warm_start
        self._tuner = PredictiveTuner(settings)
        self._entries: OrderedDict[tuple, PricedPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.tuner_invocations = 0
        self.warm_start_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- keys --------------------------------------------------------------------

    def key(self, problem: OverlapProblem) -> tuple:
        """Cache key of the problem (everything latency depends on)."""
        return (
            problem.shape.m,
            problem.shape.n,
            problem.shape.k,
            problem.device.name,
            problem.topology.name,
            problem.n_gpus,
            problem.collective.name,
            problem.dtype_bytes,
            problem.imbalance,
        )

    # -- lookup ------------------------------------------------------------------

    def lookup(self, problem: OverlapProblem) -> PricedPlan:
        """The cached plan for ``problem``'s key, tuning on a miss."""
        key = self.key(problem)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            obs.counter("plan_store.hits").inc()
            self._entries.move_to_end(key)
            return entry

        self.misses += 1
        obs.counter("plan_store.misses").inc()
        entry = self._build_plan(problem)
        if self.capacity > 0:
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs.counter("plan_store.evictions").inc()
        return entry

    def count_repeat_hits(self, lookups: int) -> None:
        """Count ``lookups`` hits that :meth:`repeat_lookups` replays in bulk."""
        if lookups <= 0:
            return
        self.hits += lookups
        obs.counter("plan_store.hits").inc(lookups)

    def repeat_lookups(self, looked_up: list[tuple[tuple, PricedPlan]], repeats: int) -> bool:
        """Repeat earlier lookups ``repeats`` times, given as their results in order.

        ``looked_up`` holds one ``(key, plan)`` pair per lookup.  When every
        plan is still the cached entry of its key, each repeat would hit: the
        keys move to the LRU end in lookup order (a second pass leaves the
        same order) and the hits are counted in bulk.  When an entry was
        evicted or rebuilt since, nothing changes and the result is False;
        the caller then looks its problems up again.
        """
        entries = self._entries
        for key, plan in looked_up:
            if entries.get(key) is not plan:
                return False
        for key, _ in looked_up:
            entries.move_to_end(key)
        self.count_repeat_hits(len(looked_up) * repeats)
        return True

    def _build_plan(self, problem: OverlapProblem) -> PricedPlan:
        shape = problem.shape
        with obs.span("plan_store.build", m=shape.m, n=shape.n, k=shape.k):
            return self._build_plan_inner(problem)

    def _build_plan_inner(self, problem: OverlapProblem) -> PricedPlan:
        tuning = None
        if self.warm_start is not None:
            tuning = self.warm_start.lookup(problem, self.settings)
            if tuning is not None:
                self.warm_start_hits += 1
                obs.counter("plan_store.warm_start_hits").inc()
        if tuning is None:
            self.tuner_invocations += 1
            obs.counter("plan_store.tuner_invocations").inc()
            tuning = self._tuner.tune(problem)
            if self.warm_start is not None:
                self.warm_start.add(problem.shape, tuning)
        return price_plan(problem, tuning, self.settings)

    # -- stats -------------------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "tuner_invocations": self.tuner_invocations,
            "warm_start_hits": self.warm_start_hits,
        }
