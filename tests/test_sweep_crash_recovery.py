"""Crash recovery in the sweep runner: retries, quarantine, resumability.

Worker crashes are simulated by monkeypatching the module-level
``_execute_scenario`` (the single execution entry point both the in-process
path and the pool-crash fallback go through), so the tests exercise the real
retry/quarantine machinery without real tuning work.  The retry budget is
the module constant ``MAX_RETRIES``, patched per test; backoff sleeps are
patched to zero.
"""

import pytest

import repro.sweep.runner as runner_module
from repro.sweep.matrix import Scenario, ScenarioMatrix
from repro.sweep.runner import SweepRunner
from repro.sweep.store import ResultStore


@pytest.fixture
def scenarios():
    return ScenarioMatrix.build(
        name="tiny",
        workload="tiny",
        shapes=[(512, 1024, 1024)],
        platforms=[("rtx4090", "rtx4090-pcie", 4)],
        collectives=["allreduce", "reducescatter"],
    ).expand()


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "results.jsonl")


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(runner_module, "RETRY_BACKOFF_S", 0.0)


def job_id_of(payload: dict) -> str:
    return Scenario.from_dict(payload).job_id


def ok_record(payload: dict, baselines: bool = False) -> dict:
    """A complete ``ok`` record: the runner stores priced cells from its fields."""
    record = {"job_id": job_id_of(payload), "scenario": payload, "status": "ok",
              "tuned": False, "cache_hit": True, "use_overlap": True, "partition": [2, 2],
              "candidates_evaluated": 1, "overlap_latency": 1.0, "non_overlap_latency": 1.5,
              "theoretical_latency": 0.75, "speedup": 1.5, "ratio_of_theoretical": 0.75}
    if baselines:
        record["method_speedups"] = {"flashoverlap": 1.5}
    return record


class TestFlakyJobsRetry:
    def test_crashes_are_retried_until_success(self, scenarios, store, monkeypatch):
        calls: dict[str, int] = {}

        def flaky(payload, cache, baselines):
            job_id = job_id_of(payload)
            calls[job_id] = calls.get(job_id, 0) + 1
            if calls[job_id] <= 2:
                raise OSError("worker died")
            return ok_record(payload)

        monkeypatch.setattr(runner_module, "_execute_scenario", flaky)
        monkeypatch.setattr(runner_module, "MAX_RETRIES", 2)
        summary = SweepRunner(store).run(scenarios)

        assert summary.failed == 0
        assert summary.quarantined == 0
        assert summary.retried == len(scenarios)
        assert all(r["status"] == "ok" for r in summary.records)
        assert all(r["attempts"] == 3 for r in summary.records)
        # Successful jobs land in the store as completed.
        assert store.completed_ids() == {s.job_id for s in scenarios}


class TestExecutionArguments:
    @pytest.mark.parametrize("with_plan_store", [True, False], ids=["store", "no-store"])
    def test_every_attempt_receives_the_runner_state(self, scenarios, store, monkeypatch,
                                                     tmp_path, with_plan_store):
        """Retried attempts get the runner's live shape cache and baseline flag."""
        plan_store_path = str(tmp_path / "cells.json") if with_plan_store else None
        seen: list[tuple] = []

        def crash_once(payload, cache, baselines):
            seen.append((job_id_of(payload), cache, baselines))
            if len(seen) % 2:
                raise OSError("worker died")
            return ok_record(payload, baselines)

        monkeypatch.setattr(runner_module, "_execute_scenario", crash_once)
        monkeypatch.setattr(runner_module, "MAX_RETRIES", 1)
        runner = SweepRunner(store, baselines=True, plan_store_path=plan_store_path)
        summary = runner.run(scenarios)

        assert summary.failed == 0
        assert (runner.plan_store is not None) is with_plan_store
        assert [job for job, *_ in seen] == [s.job_id for s in scenarios for _ in range(2)]
        for _, cache, baselines in seen:
            assert cache is runner.cache
            assert baselines is True


class TestQuarantine:
    def test_exhausted_retries_quarantine_the_job(self, scenarios, store, monkeypatch):
        def always_crash(payload, cache, baselines):
            raise OSError("dead")

        monkeypatch.setattr(runner_module, "_execute_scenario", always_crash)
        monkeypatch.setattr(runner_module, "MAX_RETRIES", 1)
        summary = SweepRunner(store).run(scenarios)

        assert summary.quarantined == len(scenarios)
        assert summary.failed == len(scenarios)
        for record in summary.records:
            assert record["status"] == "failed"
            assert record["error"] == "OSError: dead"
            assert "OSError" in record["traceback"]
            assert record["attempts"] == 2
        assert "quarantined" in summary.describe()

    def test_quarantined_jobs_are_retried_on_resume(self, scenarios, store, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_execute_scenario",
            lambda payload, cache, baselines: (_ for _ in ()).throw(OSError("dead")),
        )
        monkeypatch.setattr(runner_module, "MAX_RETRIES", 0)
        SweepRunner(store).run(scenarios)
        # Quarantined records never count as completed ...
        assert store.completed_ids() == set()

        # ... so a resumed run re-attempts every one of them.
        monkeypatch.setattr(
            runner_module, "_execute_scenario",
            lambda payload, cache, baselines: ok_record(payload),
        )
        summary = SweepRunner(store, resume=True).run(scenarios)
        assert summary.executed == len(scenarios)
        assert summary.skipped == 0
        assert summary.failed == 0
        assert store.completed_ids() == {s.job_id for s in scenarios}


class TestDeterministicErrorsNotRetried:
    def test_in_job_errors_run_exactly_once(self, scenarios, store, monkeypatch):
        calls: dict[str, int] = {}

        def in_job_error(payload, cache, baselines):
            job_id = job_id_of(payload)
            calls[job_id] = calls.get(job_id, 0) + 1
            return {"job_id": job_id, "scenario": payload,
                    "status": "error", "error": "ValueError: bad shape"}

        monkeypatch.setattr(runner_module, "_execute_scenario", in_job_error)
        monkeypatch.setattr(runner_module, "MAX_RETRIES", 3)
        summary = SweepRunner(store).run(scenarios)

        # Errors caught inside the job are deterministic: no retries.
        assert all(count == 1 for count in calls.values())
        assert summary.retried == 0
        assert summary.quarantined == 0
        assert summary.failed == len(scenarios)

