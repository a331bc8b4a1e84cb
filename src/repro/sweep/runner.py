"""Fan a scenario matrix out over worker processes.

The :class:`SweepRunner` executes every :class:`~repro.sweep.matrix.Scenario`
of a matrix -- tune (or reuse a cached partition), then price it with
:func:`~repro.core.overlap.price_plan`, the same rule as the plan store and
the operator, so no record is slower than its sequential fallback -- and
appends one record per job to a :class:`~repro.sweep.store.ResultStore`.

Determinism is a design constraint: the same matrix on 1 worker or N workers
produces identical records.  To guarantee that, every job looks partitions up
against the *initial* shape-cache snapshot (never against entries tuned by a
sibling job of the same run, whose availability would depend on scheduling);
freshly tuned entries are merged into the cache after the run, so the warm
start applies across runs, not within one.  Only the parent reads and writes
the priced-cell store, so its hit/miss counters read the same on any worker
count: stored cells replay in the parent, and only the misses become jobs.

Two caches with different scopes make a sweep fast:

* the :class:`GemmShapeCache` warm start skips tuning entirely for shapes
  close to an already-tuned entry (persisted across runs via ``cache_path``);
* the process-level offline-profile memoization
  (:meth:`repro.core.predictor.OfflineProfile.cached`) shares sampled
  bandwidth curves and offline profiles across the jobs of one process, so
  cache misses only pay the candidate search, not the offline stage.
  Before the pool forks, the parent builds the sampled curve of every
  distinct (topology, sampling settings) the pending scenarios use, so each
  worker inherits them instead of building them again.  This relies on the
  fork start method (``ProcessPoolExecutor``'s default on Linux through
  Python 3.13); under spawn or forkserver the workers build their own.  The
  in-process hit/miss counters are reported on the summary.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro import obs
from repro.analysis.speedup import compare_methods
from repro.core.overlap import PRICING_VERSION, price_plan
from repro.core.predictor import cached_sampled_curve, profile_cache_info
from repro.core.tuner import GemmShapeCache, PredictiveTuner
from repro.plans.store import PricedCellStore, plan_key
from repro.sweep.matrix import Scenario, ScenarioMatrix
from repro.sweep.store import ResultStore

#: The priced fields of one sweep record -- everything downstream of tuning
#: and simulation, all deterministic functions of the scenario content and
#: of ``PRICING_VERSION`` (both are in the cell key).  This is what a
#: :class:`PricedCellStore` cell carries (plus ``method_speedups`` when the
#: cell was priced with baselines).
_PRICED_FIELDS = (
    "use_overlap",
    "partition",
    "candidates_evaluated",
    "overlap_latency",
    "non_overlap_latency",
    "theoretical_latency",
    "speedup",
    "ratio_of_theoretical",
)

#: Extra attempts a job whose execution *raised* (crashed worker process,
#: broken pool) gets before it is quarantined as a ``failed`` record, and the
#: base of their exponential backoff (seconds).
MAX_RETRIES = 2
RETRY_BACKOFF_S = 0.05

#: Per-worker-process state, set once by :func:`_init_worker` so the shared
#: shape cache is deserialised per worker, not per job.
_WORKER_CACHE: GemmShapeCache | None = None
_WORKER_BASELINES = False


def _init_worker(cache_json: str | None, baselines: bool) -> None:
    global _WORKER_CACHE, _WORKER_BASELINES
    _WORKER_CACHE = GemmShapeCache.from_json(cache_json) if cache_json else GemmShapeCache()
    _WORKER_BASELINES = baselines


def _execute_in_worker(payload: dict) -> dict:
    return _execute_scenario(payload, _WORKER_CACHE, _WORKER_BASELINES)


def _execute_scenario(payload: dict, cache: GemmShapeCache | None, baselines: bool) -> dict:
    """Run one sweep job; module-level so worker processes can pickle it.

    ``cache`` is only read, never mutated (beyond hit/miss counters), so the
    in-process path can hand in its live object directly.  Returns the result
    record; on a shape-cache miss the freshly tuned entry rides along under
    ``"cache_entry"``, so the parent can merge it into the shared cache (the
    key is popped before the record is stored).
    """
    scenario = Scenario.from_dict(payload)
    record: dict = {"job_id": scenario.job_id, "scenario": scenario.to_dict()}
    try:
        problem = scenario.to_problem()
        settings = scenario.to_settings()

        result = cache.lookup(problem, settings) if cache is not None else None
        tuned = result is None
        if tuned:
            result = PredictiveTuner(settings).tune(problem)
        priced = price_plan(problem, result, settings)

        record.update(
            status="ok",
            tuned=tuned,
            cache_hit=not tuned,
            use_overlap=priced.tuning.use_overlap,
            partition=list(priced.tuning.partition.group_sizes),
            candidates_evaluated=priced.tuning.candidates_evaluated,
            overlap_latency=priced.overlap_latency,
            non_overlap_latency=priced.non_overlap_latency,
            theoretical_latency=priced.theoretical_latency,
            speedup=priced.speedup,
            ratio_of_theoretical=priced.ratio_of_theoretical,
        )
        if tuned:
            # The cache keeps the tuner's own pick, as the plan store's warm
            # start does; every reuse is priced again on its own problem.
            fresh = GemmShapeCache()
            fresh.add(problem.shape, result)
            record["cache_entry"] = json.loads(fresh.to_json())[0]
        if baselines:
            comparison = compare_methods(priced, settings=settings)
            record["method_speedups"] = dict(comparison.speedups)
    except Exception as error:  # noqa: BLE001 - a failed job must not kill the sweep
        record.update(
            status="error",
            error=f"{type(error).__name__}: {error}",
            traceback=traceback.format_exc(),
        )
    return record


@dataclass
class SweepSummary:
    """What one :meth:`SweepRunner.run` call did."""

    total_scenarios: int
    executed: int
    skipped: int
    failed: int
    tuned: int
    cache_hits: int
    #: Jobs replayed wholesale from the priced-cell store (no tuner or
    #: executor work; 0 when no store is attached).
    priced_hits: int = 0
    #: Jobs that needed more than one attempt (crashed worker, raised error).
    retried: int = 0
    #: Jobs that exhausted their retry budget and were stored as ``failed``.
    quarantined: int = 0
    records: list[dict] = field(default_factory=list)
    #: Offline-profile memoization counters of *this* process (worker
    #: processes keep their own caches; None when nothing ran in-process).
    profile_cache: dict | None = None

    def describe(self) -> str:
        text = (
            f"{self.executed}/{self.total_scenarios} jobs executed "
            f"({self.skipped} resumed, {self.cache_hits} cache hits, "
            f"{self.tuned} tuned, {self.failed} failed)"
        )
        if self.priced_hits:
            text += f"; {self.priced_hits} replayed from the priced-cell store"
        if self.retried or self.quarantined:
            text += f"; {self.retried} retried, {self.quarantined} quarantined"
        return text


class _Heartbeat:
    """Periodic progress lines for a running sweep.

    A daemon thread wakes every ``interval_s`` seconds and emits one
    ``[sweep] done/total`` line with retry/quarantine counts and an ETA
    extrapolated from the mean per-job wall time so far.  The counts mirror
    the ``sweep.*`` observability counters (the runner increments both from
    the same completion path).  Lines go to stderr.
    """

    def __init__(self, total: int, interval_s: float) -> None:
        self.total = total
        self.interval_s = interval_s
        self.done = 0
        self.retried = 0
        self.quarantined = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._start_s = obs.now()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @staticmethod
    def emit(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    def job_done(self, record: dict) -> None:
        with self._lock:
            self.done += 1
            if record.get("attempts", 1) > 1:
                self.retried += 1
            if record.get("status") == "failed":
                self.quarantined += 1

    def line(self) -> str:
        with self._lock:
            done, retried, quarantined = self.done, self.retried, self.quarantined
        elapsed = obs.now() - self._start_s
        remaining = self.total - done
        text = (
            f"[sweep] {done}/{self.total} jobs, "
            f"{retried} retried, {quarantined} quarantined"
        )
        if 0 < done < self.total:
            text += f", ETA {elapsed / done * remaining:.1f}s"
        elif done >= self.total:
            text += f", done in {elapsed:.1f}s"
        return text

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.emit(self.line())

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.emit(self.line())


class SweepRunner:
    """Execute a scenario matrix and persist per-job records.

    Parameters
    ----------
    store:
        JSONL result store; completed job IDs in it are skipped when
        ``resume`` is set.
    workers:
        Number of worker processes.  ``workers <= 1`` runs in-process, which
        by construction produces the same records as any worker count.
    cache:
        Shape-cache warm start.  Lookups hit this snapshot; fresh tunes are
        merged back after the run (and written to ``cache_path`` if given).
    baselines:
        Also evaluate every baseline method per scenario (slower; feeds the
        per-method aggregation of :mod:`repro.analysis.speedup`).
    plan_store_path:
        Content-addressed :class:`PricedCellStore` loaded (or created) at
        this path: jobs whose scenario content and ``PRICING_VERSION`` match
        a stored cell replay the priced values instead of re-simulating (see
        :mod:`repro.plans.store`).  Only this process reads and writes the
        store: it replays the hits before any job runs, so only misses reach
        the workers, and stores the misses' ``ok`` cells after the run.
    heartbeat_s:
        Emit a ``[sweep] done/total`` progress line (with retry/quarantine
        counts and an ETA) to stderr every ``heartbeat_s`` seconds while jobs
        run.  ``0`` (the default) disables the heartbeat.

    A job whose execution *raised* is retried up to :data:`MAX_RETRIES` times
    with exponential backoff, then quarantined as a ``failed`` record.
    Errors caught inside the job keep producing ``error`` records without
    retries -- they are deterministic and would fail again.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        resume: bool = False,
        cache: GemmShapeCache | None = None,
        cache_path: str | None = None,
        baselines: bool = False,
        plan_store_path: str | None = None,
        heartbeat_s: float = 0.0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if not (math.isfinite(heartbeat_s) and heartbeat_s >= 0):
            raise ValueError(f"heartbeat_s must be finite and non-negative, got {heartbeat_s}")
        self.store = store
        self.workers = workers
        self.resume = resume
        self.cache = cache if cache is not None else GemmShapeCache()
        self.cache_path = cache_path
        self.baselines = baselines
        self.plan_store = (
            PricedCellStore.load(plan_store_path, missing_ok=True)
            if plan_store_path is not None
            else None
        )
        self.plan_store_path = plan_store_path
        self.heartbeat_s = heartbeat_s

    def run(self, matrix: ScenarioMatrix | list[Scenario]) -> SweepSummary:
        name = matrix.name if isinstance(matrix, ScenarioMatrix) else None
        with obs.span("sweep.run", matrix=name):
            return self._run(matrix)

    def _run(self, matrix: ScenarioMatrix | list[Scenario]) -> SweepSummary:
        scenarios = matrix.expand() if isinstance(matrix, ScenarioMatrix) else list(matrix)
        completed = self.store.completed_ids() if self.resume else set()
        pending = [s for s in scenarios if s.job_id not in completed]

        heartbeat = (
            _Heartbeat(len(pending), self.heartbeat_s)
            if self.heartbeat_s > 0 and pending
            else None
        )
        replays: dict[str, dict] = {}
        cell_keys: dict[str, str] = {}  # job ID -> cell key of each job to price
        try:
            if self.plan_store is not None:
                for scenario in pending:
                    key = plan_key({"pricing_version": PRICING_VERSION, "scenario": scenario.to_dict()})
                    record = self._replay(scenario, self.plan_store.lookup(key))
                    if record is None:
                        cell_keys[scenario.job_id] = key
                    else:
                        self._account(record, heartbeat)
                        replays[scenario.job_id] = record
            jobs = [s for s in pending if s.job_id not in replays]
            if self.workers > 1 and jobs:
                cache_json = self.cache.to_json() if len(self.cache) else None
                records = self._run_pool(jobs, cache_json, heartbeat)
            else:
                # The cache is read-only during job execution (merges happen
                # afterwards), so the live object can be shared directly.
                records = []
                for scenario in jobs:
                    with obs.span("sweep.job", job_id=scenario.job_id):
                        record = self._attempt_with_retries(scenario)
                    self._account(record, heartbeat)
                    records.append(record)
        finally:
            if heartbeat is not None:
                heartbeat.stop()

        # Deterministic store order regardless of worker completion order.
        by_id = {record["job_id"]: record for record in records}
        by_id.update(replays)
        ordered = [by_id[s.job_id] for s in pending]
        for record in ordered:
            entry = record.pop("cache_entry", None)
            if entry is not None:
                self._merge_cache_entry(entry)
            key = cell_keys.get(record["job_id"])
            if key is not None and record["status"] == "ok":
                cell = {field: record[field] for field in _PRICED_FIELDS}
                if self.baselines:
                    cell["method_speedups"] = record["method_speedups"]
                self.plan_store.add(key, cell)
            self.store.append(record)

        if self.cache_path is not None:
            self.cache.save(self.cache_path)
        if self.plan_store is not None:
            self.plan_store.save(self.plan_store_path)

        failed = sum(1 for r in ordered if r.get("status") != "ok")
        quarantined = sum(1 for r in ordered if r.get("status") == "failed")
        profile_cache = profile_cache_info() if self.workers <= 1 and pending else None
        if profile_cache is not None:
            for key, value in profile_cache.items():
                obs.gauge(f"profile_cache.{key}").set(value)
        if quarantined and obs.enabled():
            # Preserve the recent span/event history for post-mortem: the
            # quarantined jobs' retry trail is exactly what the flight
            # recorder buffered.
            obs.dump_flight(f"{self.store.path}.flight.jsonl")
        return SweepSummary(
            total_scenarios=len(scenarios),
            executed=len(ordered),
            skipped=len(scenarios) - len(pending),
            failed=failed,
            tuned=sum(1 for r in ordered if r.get("tuned")),
            cache_hits=sum(1 for r in ordered if r.get("cache_hit")),
            priced_hits=sum(1 for r in ordered if r.get("priced_cell_hit")),
            retried=sum(1 for r in ordered if r.get("attempts", 1) > 1),
            quarantined=quarantined,
            records=ordered,
            profile_cache=profile_cache,
        )

    def _replay(self, scenario: Scenario, cell: dict | None) -> dict | None:
        """``scenario``'s record replayed from its stored ``cell``, or None to price it.

        The scenario content and the pricing rule are unchanged since the
        cell was priced, and pricing is deterministic, so replaying the
        stored values is bit-identical to re-simulating (the differential
        tests assert this).  No tuner or executor work happens at all.
        """
        if cell is None or (self.baselines and "method_speedups" not in cell):
            return None  # a miss, or a cell priced without baselines
        if not self.baselines:
            cell.pop("method_speedups", None)
        record = {"job_id": scenario.job_id, "scenario": scenario.to_dict(), **cell}
        record.update(status="ok", tuned=False, cache_hit=False, priced_cell_hit=True)
        return record

    def _account(self, record: dict, heartbeat: _Heartbeat | None) -> None:
        """Post one finished job to the registry (and the heartbeat)."""
        obs.counter("sweep.jobs_done").inc()
        if record.get("cache_hit"):
            obs.counter("sweep.cache_hits").inc()
        if record.get("priced_cell_hit"):
            obs.counter("sweep.priced_cell_hits").inc()
        if record.get("tuned"):
            obs.counter("sweep.tuned").inc()
        if record.get("attempts", 1) > 1:
            obs.counter("sweep.retried").inc()
        if record.get("status") == "failed":
            obs.counter("sweep.quarantined").inc()
            obs.event("sweep.quarantine", job_id=record["job_id"],
                      error=record.get("error", ""))
        if heartbeat is not None:
            heartbeat.job_done(record)

    def _attempt_with_retries(self, scenario: Scenario, already_failed: int = 0) -> dict:
        """Run one job in-process, retrying *raised* failures with backoff.

        ``_execute_scenario`` catches in-job errors itself (those records come
        back as ``status="error"`` and are not retried -- rerunning a
        deterministic failure cannot help).  A raise from the execution
        machinery is the in-process analog of a crashed worker: the job is
        retried up to :data:`MAX_RETRIES` times with exponential backoff, then
        quarantined as a ``failed`` record carrying the traceback.
        ``already_failed`` counts prior attempts (crashed pool jobs) so the
        stored attempt count reflects the whole history.
        """
        last_traceback = ""
        last_error = ""
        for attempt in range(MAX_RETRIES + 1 - already_failed):
            if attempt and RETRY_BACKOFF_S:
                time.sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
            try:
                record = _execute_scenario(scenario.to_dict(), self.cache, self.baselines)
            except Exception as error:  # noqa: BLE001 - crash analog, retried
                last_error = f"{type(error).__name__}: {error}"
                last_traceback = traceback.format_exc()
                continue
            total_attempts = already_failed + attempt + 1
            if total_attempts > 1:
                record["attempts"] = total_attempts
            return record
        return {
            "job_id": scenario.job_id,
            "scenario": scenario.to_dict(),
            "status": "failed",
            "error": last_error or "worker process crashed",
            "traceback": last_traceback,
            "attempts": MAX_RETRIES + 1,
        }

    def _run_pool(
        self, jobs: list[Scenario], cache_json: str | None, heartbeat: _Heartbeat | None
    ) -> list[dict]:
        # Forked workers inherit this memo (and the numpy.random the noise
        # loads): build each distinct curve once here, not in every worker.
        # A scenario that does not build is left to its job to record.
        for scenario in jobs:
            try:
                problem, settings = scenario.to_problem(), scenario.to_settings()
                cached_sampled_curve(
                    problem.topology,
                    settings.bandwidth_samples_per_decade,
                    settings.bandwidth_profile_noise,
                    settings.seed,
                )
            except Exception:  # noqa: BLE001 - the job reports its own error
                continue
        records: list[dict] = []
        crashed: list[Scenario] = []
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(cache_json, self.baselines),
        ) as pool:
            futures = {pool.submit(_execute_in_worker, s.to_dict()): s for s in jobs}
            for future in as_completed(futures):
                try:
                    record = future.result()
                except Exception:  # noqa: BLE001 - crashed worker / broken pool
                    crashed.append(futures[future])
                    continue
                self._account(record, heartbeat)
                records.append(record)
        # A worker crash (or a broken pool) lost these jobs; retry them
        # in-process, where the remaining budget and quarantine apply.
        for scenario in crashed:
            with obs.span("sweep.job", job_id=scenario.job_id, crashed_in_pool=True):
                record = self._attempt_with_retries(scenario, already_failed=1)
            self._account(record, heartbeat)
            records.append(record)
        return records

    def _merge_cache_entry(self, entry: dict) -> None:
        merged = GemmShapeCache.from_list([entry])
        self.cache.entries.extend(merged.entries)
