"""End-to-end observability tests: profiled API runs, CLI flags, flight dumps.

The acceptance properties of the obs layer:

* ``api.plan(..., profile=True)`` produces a phase rollup whose tracked rows
  cover >=95% of the total, with the search counters present;
* a run without ``profile`` stays byte-identical whether or not the obs
  layer exists (the attachment is explicit, never ambient);
* the disabled instrumentation returns shared null objects and costs a
  fixed handful of no-op calls per span;
* crashes leave flight-recorder JSONL artifacts (CLI crash, sweep
  quarantine);
* every profile JSON validates against the checked-in schema.
"""

import json
import sys
from pathlib import Path

import pytest

import repro.api as api
from repro import obs
from repro.cli import main
from repro.obs import validate_profile
from repro.obs.clock import FakeClock
from repro.obs.metrics import NULL_COUNTER
from repro.obs.tracer import NULL_SPAN
from repro.sweep.runner import SweepRunner, _Heartbeat
from repro.sweep.store import ResultStore

SMOKE_WORKLOAD = "llama3-training"


class TestProfiledPlan:
    @pytest.fixture(scope="class")
    def profiled(self):
        return api.plan(SMOKE_WORKLOAD, smoke=True, profile=True)

    def test_report_carries_a_profile(self, profiled):
        assert profiled.profile is not None
        assert profiled.profile.command == "repro plan"
        assert profiled.to_dict()["observability"] == profiled.profile.to_dict()

    def test_phases_sum_to_at_least_95_percent_of_total(self, profiled):
        snapshot = profiled.profile
        tracked = sum(
            phase["total_s"] for phase in snapshot.phases if phase["name"] != "(untracked)"
        )
        assert snapshot.total_s > 0
        assert tracked / snapshot.total_s >= 0.95

    def test_planner_import_is_a_phase(self, profiled):
        # api.plan imports the planner on first use. Cold, that import is a
        # visible share of a smoke search, so it gets a row of its own
        # instead of landing in "(untracked)".
        names = [phase["name"] for phase in profiled.profile.phases]
        assert "import" in names

    def test_search_counters_present(self, profiled):
        counters = profiled.profile.metrics["counters"]
        for name in (
            "plan.batches_evaluated",
            "plan.batches_pruned",
            "plan.batches_skipped",
            "plan_store.hits",
            "plan_store.misses",
            "plan_store.tuner_invocations",
        ):
            assert name in counters, name
        assert counters["plan.batches_evaluated"] > 0

    def test_snapshot_validates_against_schema(self, profiled):
        validate_profile(profiled.profile.to_dict())

    def test_unprofiled_payload_is_byte_identical(self, profiled):
        plain = api.plan(SMOKE_WORKLOAD, smoke=True)
        assert plain.profile is None
        profiled_payload = dict(profiled.to_dict())
        profiled_payload.pop("observability")
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            profiled_payload, sort_keys=True
        )

    def test_unprofiled_run_ignores_an_ambient_session(self):
        # Reports never read ambient state: a surrounding observe() (e.g. a
        # benchmark harness) must not leak into an un-profiled payload.
        with obs.observe():
            inside = api.plan(SMOKE_WORKLOAD, smoke=True)
        outside = api.plan(SMOKE_WORKLOAD, smoke=True)
        assert "observability" not in inside.to_dict()
        assert inside.to_json() == outside.to_json()


class TestNoOpOverhead:
    """Disabled instrumentation is a fixed, tiny detour.

    Counted with ``sys.setprofile`` instead of timed: the work done per span
    is deterministic, a wall-clock ratio on a shared machine is not.
    """

    #: Python calls one disabled ``obs.span`` plus ``obs.counter().inc()``
    #: may make: span(), __enter__, __exit__, counter() and inc().
    MAX_CALLS_PER_SPAN = 5

    def test_disabled_calls_return_the_shared_null_objects(self):
        assert not obs.enabled()
        assert obs.span("chunk", phase=1) is NULL_SPAN
        assert obs.counter("chunks", kind="job") is NULL_COUNTER

    def test_disabled_instrumentation_call_count_is_bounded(self):
        assert not obs.enabled()
        obs_dir = str(Path(obs.__file__).parent)
        spans = 200
        calls = {"call": 0, "c_call": 0}

        def profiler(frame, event, arg):
            # "call" reports the callee's frame, "c_call" the caller's: both
            # count work executed inside the obs package.
            if event in calls and frame.f_code.co_filename.startswith(obs_dir):
                calls[event] += 1

        def instrumented():
            for _ in range(spans):
                with obs.span("chunk"):
                    pass
                obs.counter("chunks").inc()

        instrumented()  # warm
        sys.setprofile(profiler)
        try:
            instrumented()
        finally:
            sys.setprofile(None)
        assert calls["call"] <= spans * self.MAX_CALLS_PER_SPAN, calls
        assert calls["c_call"] == 0, calls


class TestCliProfile:
    def test_plan_profile_json_validates(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(["plan", "--smoke", "--profile", "--profile-json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "repro plan: phases" in printed
        assert "plan.batches_evaluated" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        validate_profile(payload)
        assert payload["command"] == "repro plan"

    def test_profile_json_alone_skips_the_tables(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(["verify", "--profile-json", str(out)])
        assert code == 0
        assert "phases" not in capsys.readouterr().out.replace(str(out), "")
        validate_profile(json.loads(out.read_text(encoding="utf-8")))

    def test_json_report_carries_observability(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["pp", "--smoke", "--profile", "--json", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["observability"]["command"] == "repro pp"
        validate_profile(payload["observability"])

    def test_crash_dumps_the_flight_recorder(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("forced crash")

        monkeypatch.setattr(api, "plan", boom)
        with pytest.raises(RuntimeError, match="forced crash"):
            main(["plan", "--smoke", "--profile"])
        flight = tmp_path / "repro-plan-flight.jsonl"
        assert flight.exists()
        assert "flight recorder dumped" in capsys.readouterr().err

    def test_no_profile_no_flight_dump_on_crash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def boom(*args, **kwargs):
            raise RuntimeError("forced crash")

        monkeypatch.setattr(api, "plan", boom)
        with pytest.raises(RuntimeError):
            main(["plan", "--smoke"])
        assert not (tmp_path / "repro-plan-flight.jsonl").exists()


class TestSweepQuarantineFlight:
    def test_quarantine_dumps_flight_jsonl(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_module
        from repro.sweep.matrix import ScenarioMatrix

        matrix = ScenarioMatrix.build(
            name="tiny",
            workload="tiny",
            shapes=[(512, 1024, 1024)],
            platforms=[("rtx4090", "rtx4090-pcie", 4)],
            collectives=["allreduce"],
        )

        def crash(payload, cache, baselines):
            raise OSError("worker crashed")

        monkeypatch.setattr(runner_module, "_execute_scenario", crash)
        monkeypatch.setattr(runner_module, "MAX_RETRIES", 0)
        store = ResultStore(tmp_path / "results.jsonl")
        with obs.observe():
            summary = SweepRunner(store).run(matrix)
        assert summary.quarantined == 1
        flight = tmp_path / "results.jsonl.flight.jsonl"
        assert flight.exists()
        entries = [json.loads(line) for line in flight.read_text().splitlines()]
        assert any(
            entry["kind"] == "event" and entry["name"] == "sweep.quarantine"
            for entry in entries
        )

    def test_no_session_no_flight_artifact(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_module
        from repro.sweep.matrix import ScenarioMatrix

        matrix = ScenarioMatrix.build(
            name="tiny",
            workload="tiny",
            shapes=[(512, 1024, 1024)],
            platforms=[("rtx4090", "rtx4090-pcie", 4)],
            collectives=["allreduce"],
        )
        monkeypatch.setattr(
            runner_module, "_execute_scenario",
            lambda payload, cache, baselines: (_ for _ in ()).throw(OSError("crash")),
        )
        monkeypatch.setattr(runner_module, "MAX_RETRIES", 0)
        store = ResultStore(tmp_path / "results.jsonl")
        summary = SweepRunner(store).run(matrix)
        assert summary.quarantined == 1
        assert not (tmp_path / "results.jsonl.flight.jsonl").exists()


class TestHeartbeat:
    def test_lines_report_progress_and_final_time(self, capsys):
        heartbeat = _Heartbeat(total=3, interval_s=60.0)
        try:
            heartbeat.job_done({"status": "ok"})
            heartbeat.job_done({"status": "ok", "attempts": 2})
            assert heartbeat.line().startswith("[sweep] 2/3 jobs, 1 retried, 0 quarantined")
            assert "ETA" in heartbeat.line()
            heartbeat.job_done({"status": "failed", "attempts": 3})
        finally:
            heartbeat.stop()
        lines = capsys.readouterr().err.splitlines()
        assert lines  # stop() always emits a final line
        assert lines[-1].startswith("[sweep] 3/3 jobs, 2 retried, 1 quarantined")
        assert "done in" in lines[-1]

    def test_runner_emits_heartbeat_lines(self, tmp_path, capsys):
        from repro.sweep.matrix import ScenarioMatrix

        matrix = ScenarioMatrix.build(
            name="tiny",
            workload="tiny",
            shapes=[(512, 1024, 1024)],
            platforms=[("rtx4090", "rtx4090-pcie", 4)],
            collectives=["allreduce"],
        )
        store = ResultStore(tmp_path / "results.jsonl")
        summary = SweepRunner(store, heartbeat_s=60.0).run(matrix)
        assert summary.executed == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("[sweep] 1/1 jobs")

    def test_heartbeat_uses_the_ambient_clock(self, capsys):
        with obs.observe(clock=FakeClock(start=0.0, step=0.0)):
            heartbeat = _Heartbeat(total=1, interval_s=60.0)
            try:
                heartbeat.job_done({"status": "ok"})
            finally:
                heartbeat.stop()
        assert "done in 0.0s" in capsys.readouterr().err.splitlines()[-1]
