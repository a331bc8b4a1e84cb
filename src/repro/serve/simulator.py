"""Event-driven serving simulator over the overlap operator.

One :class:`ServingSimulator` run is an online serving experiment: requests
arrive on the :class:`~repro.sim.engine.EventEngine` clock, the
continuous-batching scheduler packs them into iterations, and every iteration
executes one stack of decoder layers whose row-parallel "GEMM + AllReduce"
pairs run either as tuned FlashOverlap plans (``mode="overlap"``, plans served
by the :class:`~repro.plans.cache.PlanCache`, one plan per token bucket) or as the
sequential non-overlap baseline (``mode="non-overlap"``).  Per-request TTFT /
TPOT / end-to-end latencies fall out of the event timeline.

The iteration latency model reuses the workload substrate: operator streams
come from :func:`repro.workloads.llm.llm_inference_layer` at the *bucketed*
token count, so the simulator prices exactly the layer the end-to-end
benchmarks price, and every overlap-target latency is pre-simulated once per
bucket by the plan cache.  Everything is deterministic: the same config,
traffic and seed produce a bit-identical metrics report.

Fault injection threads through the same loop: a
:class:`~repro.faults.injector.FaultInjector` makes the replica crash (the
in-flight iteration is aborted and its work wasted), straggle (iteration
finish times stretch along the compute speed timeline), lose interconnect
bandwidth (iterations are priced against a degraded topology) or drop
arrivals, while the :class:`~repro.faults.policy.ResiliencePolicy` drives
retries with backoff, per-request deadlines, admission control and warm-spare
failover.  Fault timelines are seeded, so chaos runs replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.comm.topology import Topology, a800_nvlink
from repro.core.baselines import NonOverlapBaseline
from repro.core.config import DEFAULT_SETTINGS, OverlapSettings
from repro.core.overlap import PricedPlan
from repro.faults.injector import FaultInjector
from repro.faults.metrics import build_fault_stats
from repro.faults.policy import ResiliencePolicy
from repro.gpu.device import A800, GPUSpec
from repro.plans.cache import PlanCache, bucket_tokens
from repro.serve.arrivals import Request
from repro.serve.metrics import (
    SLO,
    FailureRecord,
    RequestRecord,
    ServingMetrics,
    compute_metrics,
)
from repro.serve.scheduler import ContinuousBatchingScheduler, IterationBatch
from repro.sim.engine import EventEngine
from repro.workloads.llm import LLAMA2_7B, LLAMA3_70B, ModelConfig, llm_inference_layer
from repro.workloads.parallelism import ParallelismConfig

SERVE_MODES = ("overlap", "non-overlap")

#: Fixed per-iteration overhead (scheduling, sampling, detokenization).
ITERATION_OVERHEAD_US = 50.0

#: Models the serving CLI can instantiate by name.
SERVE_MODELS: dict[str, ModelConfig] = {
    "llama2-7b": LLAMA2_7B,
    "llama3-70b": LLAMA3_70B,
}

#: The CI-sized smoke scenario -- a short summarization burst on the small
#: model -- behind ``repro serve --smoke`` and ``api.serve(smoke=True)``.
SMOKE_SCENARIO: dict = {
    "rate": 64.0,
    "requests": 24,
    "distribution": "summarize",
    "workload": "llama2-7b",
    "layers": 2,
    "max_batch_tokens": 4096,
    "max_batch_size": 16,
}


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one serving engine instance."""

    model: ModelConfig = LLAMA2_7B
    device: GPUSpec = A800
    topology: Topology = a800_nvlink(4)
    layers: int = 4
    max_batch_tokens: int = 2048
    max_batch_size: int = 32
    settings: OverlapSettings = DEFAULT_SETTINGS

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ValueError("layers must be >= 1")

    @property
    def tp(self) -> int:
        """Tensor-parallel degree (the collective spans the whole topology)."""
        return self.topology.n_gpus

    def describe(self) -> str:
        return (
            f"{self.model.name} ({self.layers} layers, TP={self.tp}) on "
            f"{self.topology.n_gpus}x {self.device.name} ({self.topology.name}), "
            f"batch <= {self.max_batch_tokens} tokens / {self.max_batch_size} requests"
        )


@dataclass
class ServingResult:
    """Everything one simulation run produced."""

    mode: str
    records: list[RequestRecord]
    iterations: int
    total_batched_tokens: int
    makespan_s: float
    #: Bucketed iteration token count -> number of iterations at that bucket.
    token_buckets: dict[int, int] = field(default_factory=dict)
    plan_cache_stats: dict | None = None
    #: Requests that left the system without completing (faulted runs only).
    failures: list[FailureRecord] = field(default_factory=list)
    #: Iterations aborted by a crash, and the batched tokens they carried.
    wasted_iterations: int = 0
    wasted_tokens: int = 0
    #: Degraded-mode summary; None for a plain (fault-free, policy-free) run.
    fault_stats: dict | None = None

    def metrics(self, slo: SLO | None = None) -> ServingMetrics:
        return compute_metrics(self.records, self.makespan_s, slo)

    def to_dict(self, slo: SLO | None = None) -> dict:
        """JSON-stable report (identical for identical runs).

        The ``faults`` / ``failures`` keys appear only when fault injection or
        a resilience policy was active, so plain runs serialize exactly as
        they always did.
        """
        payload = {
            "mode": self.mode,
            "iterations": self.iterations,
            "total_batched_tokens": self.total_batched_tokens,
            "makespan_s": self.makespan_s,
            "token_buckets": {str(k): self.token_buckets[k] for k in sorted(self.token_buckets)},
            "plan_cache": self.plan_cache_stats,
            "metrics": self.metrics(slo).to_dict(),
        }
        if self.fault_stats is not None:
            payload["faults"] = self.fault_stats
            payload["failures"] = [record.to_dict() for record in self.failures]
        return payload


class ServingSimulator:
    """Continuous-batching serving loop on the discrete-event engine."""

    def __init__(
        self,
        config: ServeConfig,
        plan_cache: PlanCache | None = None,
        mode: str = "overlap",
        faults: FaultInjector | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        if mode not in SERVE_MODES:
            raise ValueError(f"mode must be one of {SERVE_MODES}, got {mode!r}")
        self.config = config
        self.mode = mode
        if plan_cache is None and mode == "overlap":
            plan_cache = PlanCache(config.settings)
        self.plan_cache = plan_cache
        self.faults = faults
        # The injector already carries the policy it was compiled under; an
        # explicit `resilience` argument overrides the loop-side knobs only.
        if resilience is None and faults is not None:
            resilience = faults.policy
        self.resilience = resilience
        #: (bucket, comm_factor) -> (iteration latency, the plan lookups that
        #: priced it as (key, plan) pairs; empty in non-overlap mode).
        self._priced: dict[tuple[int, float], tuple[float, list[tuple[tuple, PricedPlan]]]] = {}

    # -- iteration latency model ---------------------------------------------------

    def iteration_latency(self, total_tokens: int, comm_factor: float = 1.0) -> float:
        """Latency of one engine iteration batching ``total_tokens`` tokens.

        ``comm_factor`` prices the iteration against a topology whose link
        bandwidth is scaled to that fraction (degraded-interconnect faults);
        the plan cache keys on topology name, so degraded and nominal plans
        coexist in one cache.

        Each ``(bucket, comm_factor)`` is priced once per simulator.  An
        overlap-mode repeat replays the plan cache's accounting through
        :meth:`PlanCache.repeat_lookups`, or looks every problem up again
        (and re-prices) once the cache has evicted or rebuilt one of its
        plans -- always, for a cache of capacity 0.
        """
        bucket = bucket_tokens(total_tokens)
        key = (bucket, comm_factor)
        priced = self._priced.get(key)
        if priced is not None and self._repeat_lookups(key, 1):
            return priced[0]
        ops = llm_inference_layer(
            self.config.model,
            bucket,
            ParallelismConfig(tp=self.config.tp),
            self.config.device,
            self.config.topology.degraded(comm_factor),
        )
        cache = self.plan_cache if self.mode == "overlap" else None
        per_layer = 0.0
        looked_up: list[tuple[tuple, PricedPlan]] = []
        for op in ops:
            if op.problem is None:
                per_layer += op.other_latency * op.count
            elif cache is None:
                per_layer += NonOverlapBaseline(self.config.settings).latency(op.problem) * op.count
            else:
                plan = cache.lookup(op.problem)
                looked_up.append((cache.key(op.problem), plan))
                per_layer += plan.overlap_latency * op.count
        latency = per_layer * self.config.layers + ITERATION_OVERHEAD_US * 1e-6
        self._priced[key] = (latency, looked_up)
        return latency

    def _repeat_lookups(self, key: tuple[int, float], repeats: int) -> bool:
        """Account ``repeats`` repeats of the plan lookups that priced ``key``.

        True when no repeat needs a real lookup: in non-overlap mode, or when
        :meth:`PlanCache.repeat_lookups` finds every plan still cached.
        """
        if self.mode != "overlap":
            return True
        return self.plan_cache.repeat_lookups(self._priced[key][1], repeats)

    # -- event loop ------------------------------------------------------------------

    def run(self, requests: list[Request]) -> ServingResult:
        """Simulate the full lifetime of ``requests`` and report the result."""
        with obs.span("serve.simulate", mode=self.mode, requests=len(requests)):
            return self._run(requests)

    def _run(self, requests: list[Request]) -> ServingResult:
        # Registry handles are resolved once per run (no-ops when observability
        # is off) so the event-loop closures never pay a registry lookup.
        iterations_counter = obs.counter("serve.iterations", mode=self.mode)
        tokens_counter = obs.counter("serve.batched_tokens", mode=self.mode)
        retries_counter = obs.counter("serve.retries", mode=self.mode)
        wasted_counter = obs.counter("serve.wasted_iterations", mode=self.mode)
        crash_counter = obs.counter("serve.crashes", mode=self.mode)
        latency_histogram = obs.histogram("serve.iteration_latency_s", mode=self.mode)
        engine = EventEngine()
        scheduler = ContinuousBatchingScheduler(
            max_batch_tokens=self.config.max_batch_tokens,
            max_batch_size=self.config.max_batch_size,
        )
        requests = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        arrivals = {r.request_id: r for r in requests}
        first_token_times: dict[int, float] = {}
        records: list[RequestRecord] = []
        failures: list[FailureRecord] = []
        state = {
            "busy": False,
            "wasted_iterations": 0,
            "wasted_tokens": 0,
            "attempts": 0,
            "retries": 0,
        }
        iterations_by_tokens: dict[int, int] = {}  # batched tokens -> iterations
        injector = self.faults
        policy = self.resilience
        retry = policy.retry if policy is not None else None
        attempts_of: dict[int, int] = {}
        deadline_events: dict[int, object] = {}
        done: set[int] = set()  # completed or failed request IDs
        inflight = {"event": None, "batch": None, "ids": frozenset()}
        # Requests whose deadline expired while their batch was in flight;
        # evicted right after that batch commits (or after a crash aborts it).
        expired_pending: set[int] = set()

        def clear_inflight() -> None:
            inflight["event"] = None
            inflight["batch"] = None
            inflight["ids"] = frozenset()

        def deadline_of(request: Request) -> float:
            return request.arrival_time + policy.deadline_s

        def record_failure(request: Request, outcome: str, time: float, attempts: int) -> None:
            done.add(request.request_id)
            first_token_times.pop(request.request_id, None)
            event = deadline_events.pop(request.request_id, None)
            if event is not None:
                engine.cancel(event)
            failures.append(
                FailureRecord(
                    request_id=request.request_id,
                    arrival_time=request.arrival_time,
                    outcome=outcome,
                    time=time,
                    attempts=attempts,
                )
            )
            obs.counter("serve.failures", mode=self.mode, outcome=outcome).inc()

        def evict_expired() -> None:
            for request_id in sorted(expired_pending):
                request = arrivals[request_id]
                scheduler.remove(request_id)
                record_failure(request, "timed-out", deadline_of(request),
                               attempts_of.get(request_id, 1))
            expired_pending.clear()

        def commit(batch: IterationBatch) -> None:
            """Account one executed batch (inline or from its finish event)."""
            outcome = scheduler.apply(batch)
            now = engine.now
            tokens = batch.total_tokens
            iterations_by_tokens[tokens] = iterations_by_tokens.get(tokens, 0) + 1
            for request_id in outcome.first_tokens:
                first_token_times[request_id] = now
            for request_id in outcome.finished:
                request = arrivals[request_id]
                expired_pending.discard(request_id)
                if (
                    policy is not None
                    and policy.deadline_s is not None
                    and now > deadline_of(request)
                ):
                    # The last token landed after the client gave up.
                    record_failure(request, "timed-out", deadline_of(request),
                                   attempts_of.get(request_id, 1))
                    continue
                done.add(request_id)
                event = deadline_events.pop(request_id, None)
                if event is not None:
                    engine.cancel(event)
                records.append(
                    RequestRecord(
                        request_id=request_id,
                        arrival_time=request.arrival_time,
                        first_token_time=first_token_times.pop(request_id),
                        finish_time=now,
                        prompt_tokens=request.prompt_tokens,
                        output_tokens=request.output_tokens,
                    )
                )
            if expired_pending:
                evict_expired()

        def advance_steady_run(batch: IterationBatch, latency: float) -> None:
            """Collapse the silent steady-decode stretch following ``batch``.

            After a committed decode-only iteration that finished nobody, the
            upcoming iterations repeat it exactly -- same requests, tokens,
            bucket and latency -- until a request runs out of output tokens
            or an engine event intervenes.  Their side effects are applied in
            bulk, bit-identically to executing each one; the stretch runs
            iteration by iteration instead when its plan lookups would not
            all hit (a cache too small to keep one iteration's plans).
            """
            if scheduler.running_count != len(batch.decode):
                return  # somebody finished: the next batch differs
            run = scheduler.steady_decode_run()
            if run <= 0:
                return
            upcoming = engine.next_event_time()
            time = engine.now
            count = 0
            while count < run:
                finish = time + latency
                if upcoming is not None and finish >= upcoming:
                    break
                time = finish
                count += 1
            if count == 0:
                return
            # Each repeat re-issues the committed iteration's plan lookups.
            if not self._repeat_lookups((bucket_tokens(batch.total_tokens), 1.0), count):
                return
            engine.advance_to(time)
            scheduler.advance_decodes(count)
            iterations_by_tokens[batch.total_tokens] += count
            latency_histogram.observe_repeated(latency, count)

        def start_next_iteration() -> None:
            while True:
                now = engine.now
                if injector is not None and injector.is_down(now):
                    state["busy"] = False
                    return
                batch = scheduler.next_batch()
                if batch is None:
                    state["busy"] = False
                    return
                if injector is None:
                    latency = self.iteration_latency(batch.total_tokens)
                    finish = now + latency
                else:
                    latency = self.iteration_latency(
                        batch.total_tokens, injector.comm_factor_at(now)
                    )
                    finish = injector.straggler_finish(now, latency)
                latency_histogram.observe(latency)
                upcoming = engine.next_event_time()
                if upcoming is None or finish < upcoming:
                    # No boundary event (arrival, deadline, crash or recovery)
                    # fires before this iteration lands, so commit it inline
                    # without a heap round-trip.  Ties go to the event: it was
                    # scheduled first, so a finish event would run after it.
                    engine.advance_to(finish)
                    commit(batch)
                    if injector is None and not batch.prefill:
                        advance_steady_run(batch, latency)
                    continue
                state["busy"] = True
                inflight["event"] = engine.schedule(finish, finish_iteration, batch)
                inflight["batch"] = batch
                inflight["ids"] = frozenset(
                    {chunk.request_id for chunk in batch.prefill} | set(batch.decode)
                )
                return

        def finish_iteration(batch: IterationBatch) -> None:
            clear_inflight()
            commit(batch)
            start_next_iteration()

        def on_deadline(request_id: int) -> None:
            deadline_events.pop(request_id, None)
            if request_id in done:
                return
            if request_id in inflight["ids"]:
                # Mid-iteration: let the batch commit, then evict.
                expired_pending.add(request_id)
                return
            request = arrivals[request_id]
            scheduler.remove(request_id)
            record_failure(request, "timed-out", engine.now,
                           attempts_of.get(request_id, 1))

        def on_arrival(request: Request, attempt: int = 1) -> None:
            now = engine.now
            state["attempts"] += 1
            if injector is not None and injector.drops(request.request_id, attempt, now):
                if retry is not None and attempt <= retry.max_retries:
                    state["retries"] += 1
                    retries_counter.inc()
                    engine.schedule_after(
                        retry.delay(attempt, request.request_id),
                        on_arrival, request, attempt + 1,
                    )
                else:
                    record_failure(request, "dropped", now, attempt)
                return
            if (
                policy is not None
                and policy.admission_limit is not None
                and scheduler.waiting_count + scheduler.running_count >= policy.admission_limit
            ):
                record_failure(request, "shed", now, attempt)
                return
            attempts_of[request.request_id] = attempt
            scheduler.add(request)
            if policy is not None and policy.deadline_s is not None:
                deadline_events[request.request_id] = engine.schedule(
                    max(now, deadline_of(request)), on_deadline, request.request_id
                )
            if not state["busy"]:
                start_next_iteration()

        def on_crash() -> None:
            crash_counter.inc()
            obs.event("serve.crash", time_s=engine.now, mode=self.mode)
            if inflight["event"] is not None:
                # Abort the in-flight iteration: its work is lost (next_batch
                # mutated queues but apply() never commits the progress).
                engine.cancel(inflight["event"])
                state["wasted_iterations"] += 1
                state["wasted_tokens"] += inflight["batch"].total_tokens
                wasted_counter.inc()
                clear_inflight()
                evict_expired()
            state["busy"] = False

        def on_recover() -> None:
            if not state["busy"] and scheduler.has_work:
                start_next_iteration()

        if injector is not None:
            for window in injector.downtime:
                engine.schedule(window.start, on_crash)
                engine.schedule(window.end, on_recover)
        for request in requests:
            engine.schedule(request.arrival_time, on_arrival, request)
        engine.run()

        if scheduler.has_work:  # pragma: no cover - defensive
            raise RuntimeError("serving simulation drained with unfinished requests")

        records.sort(key=lambda r: r.request_id)
        failures.sort(key=lambda f: f.request_id)
        iterations = sum(iterations_by_tokens.values())
        batched_tokens = sum(tokens * count for tokens, count in iterations_by_tokens.items())
        iterations_counter.inc(iterations)
        tokens_counter.inc(batched_tokens)
        token_buckets: dict[int, int] = {}
        for tokens in sorted(iterations_by_tokens):
            bucket = bucket_tokens(tokens)
            token_buckets[bucket] = token_buckets.get(bucket, 0) + iterations_by_tokens[tokens]
        fault_stats = None
        if injector is not None or (policy is not None and policy.engaged):
            fault_stats = build_fault_stats(
                injector,
                makespan_s=engine.now,
                num_requests=len(requests),
                attempts=state["attempts"],
                retries=state["retries"],
                failures=failures,
                wasted_iterations=state["wasted_iterations"],
                wasted_tokens=state["wasted_tokens"],
            )
        return ServingResult(
            mode=self.mode,
            records=records,
            iterations=iterations,
            total_batched_tokens=batched_tokens,
            makespan_s=engine.now,
            token_buckets=token_buckets,
            plan_cache_stats=self.plan_cache.stats() if self.plan_cache is not None else None,
            failures=failures,
            wasted_iterations=state["wasted_iterations"],
            wasted_tokens=state["wasted_tokens"],
            fault_stats=fault_stats,
        )
