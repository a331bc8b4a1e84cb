"""Tests for the sweep runner, result store and aggregation layer."""

import json

import pytest

from repro.core.predictor import clear_profile_caches, profile_cache_info
from repro.core.tuner import GemmShapeCache
from repro.plans.store import PricedCellStore, plan_key
from repro.sweep.aggregate import (
    group_summary_table,
    scenario_table,
    summarize_by_group,
)
from repro.sweep.matrix import Scenario, ScenarioMatrix
from repro.sweep.presets import matrix_from_preset
from repro.sweep.runner import SweepRunner
from repro.sweep.store import ResultStore


@pytest.fixture
def tiny_matrix() -> ScenarioMatrix:
    """Four fast scenarios spanning two shapes and two collectives."""
    return ScenarioMatrix.build(
        name="tiny",
        workload="tiny",
        shapes=[(512, 1024, 1024), (2048, 2048, 2048)],
        platforms=[("rtx4090", "rtx4090-pcie", 4)],
        collectives=["allreduce", "reducescatter"],
    )


@pytest.fixture
def two_platform_matrix() -> ScenarioMatrix:
    """Eight scenarios on two platforms: two sampled bandwidth curves."""
    return ScenarioMatrix.build(
        name="two-platform",
        workload="tiny",
        shapes=[(512, 1024, 1024), (2048, 2048, 2048)],
        platforms=[("rtx4090", "rtx4090-pcie", 4), ("a800", "a800-nvlink", 8)],
        collectives=["allreduce", "reducescatter"],
    )


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "results.jsonl")


class TestResultStore:
    def test_append_and_read_back(self, store):
        store.append({"job_id": "a", "status": "ok"})
        store.append({"job_id": "b", "status": "error"})
        records = list(store.records())
        assert [r["job_id"] for r in records] == ["a", "b"]

    def test_append_creates_parent_directories(self, tmp_path):
        nested = ResultStore(tmp_path / "deep" / "dir" / "r.jsonl")
        nested.append({"job_id": "a"})
        assert nested.path.exists()

    def test_record_without_job_id_rejected(self, store):
        with pytest.raises(KeyError):
            store.append({"status": "ok"})

    def test_completed_ids_exclude_failures(self, store):
        store.append({"job_id": "good", "status": "ok"})
        store.append({"job_id": "bad", "status": "error"})
        assert store.completed_ids() == {"good"}

    def test_missing_file_is_empty(self, store):
        assert list(store.records()) == []
        assert store.completed_ids() == set()

    def test_file_is_one_json_object_per_line(self, store):
        store.append({"job_id": "a", "speedup": 1.25})
        lines = store.path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["speedup"] == 1.25


class TestSweepRunner:
    def test_runs_every_scenario(self, store, tiny_matrix):
        summary = SweepRunner(store).run(tiny_matrix)
        assert summary.total_scenarios == 4
        assert summary.executed == 4
        assert summary.failed == 0
        assert store.completed_ids() == {s.job_id for s in tiny_matrix.expand()}

    def test_records_carry_results(self, store, tiny_matrix):
        summary = SweepRunner(store).run(tiny_matrix)
        for record in summary.records:
            assert record["status"] == "ok"
            assert record["speedup"] > 0
            assert record["overlap_latency"] > 0
            assert record["non_overlap_latency"] > 0
            assert record["partition"]
            assert sum(record["partition"]) > 0

    def test_resume_skips_completed_jobs(self, store, tiny_matrix):
        SweepRunner(store).run(tiny_matrix)
        resumed = SweepRunner(store, resume=True).run(tiny_matrix)
        assert resumed.executed == 0
        assert resumed.tuned == 0
        assert resumed.skipped == 4

    def test_resume_retries_failed_jobs(self, store, tiny_matrix):
        scenarios = tiny_matrix.expand()
        store.append({"job_id": scenarios[0].job_id, "status": "error", "error": "boom"})
        summary = SweepRunner(store, resume=True).run(tiny_matrix)
        assert summary.executed == 4  # the failed record does not count as done
        assert store.completed_ids() == {s.job_id for s in scenarios}

    def test_without_resume_jobs_rerun(self, store, tiny_matrix):
        SweepRunner(store).run(tiny_matrix)
        again = SweepRunner(store).run(tiny_matrix)
        assert again.executed == 4

    @pytest.mark.parametrize("baselines", [False, True])
    def test_worker_processes_match_in_process_results(
        self, tmp_path, two_platform_matrix, baselines
    ):
        serial_path, parallel_path = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        serial = SweepRunner(ResultStore(serial_path), baselines=baselines).run(
            two_platform_matrix
        )
        parallel = SweepRunner(
            ResultStore(parallel_path), workers=2, baselines=baselines
        ).run(two_platform_matrix)
        assert serial.failed == 0
        assert parallel.records == serial.records
        assert parallel_path.read_bytes() == serial_path.read_bytes()

    def test_parent_builds_each_curve_before_the_pool_forks(self, tmp_path, two_platform_matrix):
        # One sampled curve per platform lands in this process's memo, for
        # the forked workers to inherit; the per-problem profiles do not.
        clear_profile_caches()
        SweepRunner(ResultStore(tmp_path / "r.jsonl"), workers=2).run(two_platform_matrix)
        info = profile_cache_info()
        assert (info["curve_misses"], info["curve_size"], info["profile_size"]) == (2, 2, 0)

    def test_store_order_is_deterministic_across_worker_counts(self, tmp_path, tiny_matrix):
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        SweepRunner(store_a, workers=1).run(tiny_matrix)
        SweepRunner(store_b, workers=2).run(tiny_matrix)
        order_a = [r["job_id"] for r in store_a.records()]
        order_b = [r["job_id"] for r in store_b.records()]
        assert order_a == order_b

    def test_cache_warm_start_avoids_retuning(self, tmp_path, tiny_matrix):
        cache_path = tmp_path / "cache.json"
        first = SweepRunner(
            ResultStore(tmp_path / "first.jsonl"), cache_path=str(cache_path)
        ).run(tiny_matrix)
        assert first.tuned == 4
        assert cache_path.exists()

        cache = GemmShapeCache.load(cache_path)
        second = SweepRunner(ResultStore(tmp_path / "second.jsonl"), cache=cache).run(tiny_matrix)
        assert second.tuned == 0
        assert second.cache_hits == 4

    def test_failed_scenario_recorded_not_raised(self, tmp_path):
        # A matrix rejects a bad topology when it is built, but a scenario
        # list reaches the runner as is: the topology name only resolves
        # inside the job, so the failure surfaces as an error record rather
        # than an exception in the runner.  The third scenario builds, but
        # its noise drives a sampled bandwidth negative, so its curve does
        # not: on workers the parent's curve warm-up must skip both.
        common = dict(m=512, n=1024, k=1024, device="a800", gpus=4, collective="allreduce")
        scenarios = [
            Scenario(workload="bad", topology="no-such-topology", **common),
            Scenario(workload="good", topology="a800-nvlink", **common),
            Scenario(workload="noisy", topology="a800-nvlink", **common,
                     settings_overrides=(("bandwidth_profile_noise", 3.0),)),
        ]
        serial = SweepRunner(ResultStore(tmp_path / "serial.jsonl")).run(scenarios)
        assert serial.failed == 2
        bad, good, noisy = serial.records
        assert bad["status"] == "error"
        assert bad["error"].startswith("KeyError: \"unknown topology 'no-such-topology'")
        assert good["status"] == "ok"
        assert noisy["error"] == "ValueError: sampled bandwidths must be positive"
        assert "cached_sampled_curve" in noisy["traceback"]
        parallel = SweepRunner(ResultStore(tmp_path / "parallel.jsonl"), workers=2).run(scenarios)
        assert parallel.records == serial.records

    def test_baselines_mode_adds_method_speedups(self, store, tiny_matrix):
        summary = SweepRunner(store, baselines=True).run(tiny_matrix)
        for record in summary.records:
            assert "flashoverlap" in record["method_speedups"]
            assert "vanilla-decomposition" in record["method_speedups"]


class TestOneFallbackRule:
    """Sweep jobs price through ``price_plan``, like the plan store."""

    @pytest.mark.parametrize("preset", ["smoke", "serving-rate32"])
    def test_no_record_is_slower_than_sequential(self, store, preset):
        summary = SweepRunner(store).run(matrix_from_preset(preset))
        assert summary.failed == 0
        for record in summary.records:
            assert record["speedup"] >= 1 - 1e-12, record["job_id"]

    def test_a_baselines_record_has_one_flashoverlap_price(self, tmp_path):
        # The second run reuses warm entries tuned for other collectives and
        # platforms; the baselines must still compare against the record's
        # own price, not a fresh tune of the problem.
        cache = GemmShapeCache()
        smoke = matrix_from_preset("smoke")
        SweepRunner(ResultStore(tmp_path / "cold.jsonl"), cache=cache).run(smoke)
        warm = SweepRunner(
            ResultStore(tmp_path / "warm.jsonl"), cache=cache, baselines=True
        ).run(smoke)
        assert warm.cache_hits == len(warm.records) == 12
        for record in warm.records:
            assert record["method_speedups"]["flashoverlap"] == record["speedup"], (
                record["job_id"]
            )


PRICED_FIELDS = (
    "use_overlap", "partition", "candidates_evaluated", "overlap_latency",
    "non_overlap_latency", "theoretical_latency", "speedup", "ratio_of_theoretical",
)


def priced_view(records):
    return {r["job_id"]: {k: r[k] for k in PRICED_FIELDS} for r in records}


class TestPricedCellStore:
    def test_plan_key_is_order_insensitive_and_stable(self):
        a = plan_key({"m": 1, "n": 2})
        b = plan_key({"n": 2, "m": 1})
        assert a == b
        assert a != plan_key({"m": 1, "n": 3})

    def test_lookup_counts_hits_and_misses(self):
        cells = PricedCellStore()
        assert cells.lookup("k") is None
        cells.add("k", {"speedup": 1.5})
        assert cells.lookup("k") == {"speedup": 1.5}
        assert cells.stats() == {"size": 1, "hits": 1, "misses": 1}

    def test_round_trips_through_disk(self, tmp_path):
        cells = PricedCellStore()
        cells.add("k", {"overlap_latency": 0.125, "partition": [2, 2]})
        path = tmp_path / "cells.json"
        cells.save(path)
        loaded = PricedCellStore.load(path)
        assert loaded.lookup("k") == {"overlap_latency": 0.125, "partition": [2, 2]}

    def test_load_missing_ok(self, tmp_path):
        assert len(PricedCellStore.load(tmp_path / "nope.json", missing_ok=True)) == 0
        with pytest.raises(FileNotFoundError):
            PricedCellStore.load(tmp_path / "nope.json")


class TestSweepPricedCells:
    def test_second_run_replays_every_cell_bit_identically(self, tmp_path, tiny_matrix):
        cells_path = tmp_path / "cells.json"
        first = SweepRunner(
            ResultStore(tmp_path / "first.jsonl"), plan_store_path=str(cells_path)
        ).run(tiny_matrix)
        assert first.priced_hits == 0
        assert cells_path.exists()

        second = SweepRunner(
            ResultStore(tmp_path / "second.jsonl"), plan_store_path=str(cells_path)
        ).run(tiny_matrix)
        assert second.priced_hits == 4
        assert second.tuned == 0
        assert priced_view(second.records) == priced_view(first.records)
        for record in second.records:
            assert record["priced_cell_hit"] is True

    def test_replayed_cells_match_a_store_free_run(self, tmp_path, tiny_matrix):
        cells_path = tmp_path / "cells.json"
        SweepRunner(
            ResultStore(tmp_path / "warm.jsonl"), plan_store_path=str(cells_path)
        ).run(tiny_matrix)
        replayed = SweepRunner(
            ResultStore(tmp_path / "replayed.jsonl"), plan_store_path=str(cells_path)
        ).run(tiny_matrix)
        plain = SweepRunner(ResultStore(tmp_path / "plain.jsonl")).run(tiny_matrix)
        assert priced_view(replayed.records) == priced_view(plain.records)

    def test_workers_share_the_snapshot_and_ride_cells_back(self, tmp_path, two_platform_matrix):
        serial_cells, cells_path = tmp_path / "serial-cells.json", tmp_path / "cells.json"
        serial = SweepRunner(
            ResultStore(tmp_path / "serial.jsonl"), plan_store_path=str(serial_cells)
        ).run(two_platform_matrix)
        parallel = SweepRunner(
            ResultStore(tmp_path / "parallel.jsonl"),
            workers=2,
            plan_store_path=str(cells_path),
        ).run(two_platform_matrix)
        assert parallel.priced_hits == 0
        assert parallel.records == serial.records
        assert cells_path.read_bytes() == serial_cells.read_bytes()
        assert len(PricedCellStore.load(cells_path)) == 8

        again = SweepRunner(
            ResultStore(tmp_path / "again.jsonl"),
            workers=2,
            plan_store_path=str(cells_path),
        ).run(two_platform_matrix)
        assert again.priced_hits == 8
        # A replayed record is the priced record, flagged as replayed.
        assert again.records == [
            {**record, "tuned": False, "priced_cell_hit": True} for record in parallel.records
        ]

    def test_cell_without_baselines_is_not_replayed_by_a_baselines_run(
        self, tmp_path, tiny_matrix
    ):
        cells_path = tmp_path / "cells.json"
        SweepRunner(
            ResultStore(tmp_path / "warm.jsonl"), plan_store_path=str(cells_path)
        ).run(tiny_matrix)
        enriched = SweepRunner(
            ResultStore(tmp_path / "baselines.jsonl"),
            baselines=True,
            plan_store_path=str(cells_path),
        ).run(tiny_matrix)
        assert enriched.priced_hits == 0
        for record in enriched.records:
            assert "method_speedups" in record
        # The enriched cells were written back and now replay with baselines.
        replay = SweepRunner(
            ResultStore(tmp_path / "replay.jsonl"),
            baselines=True,
            plan_store_path=str(cells_path),
        ).run(tiny_matrix)
        assert replay.priced_hits == 4
        by_id = {r["job_id"]: r for r in enriched.records}
        for record in replay.records:
            assert record["method_speedups"] == by_id[record["job_id"]]["method_speedups"]

    def test_a_cell_priced_by_another_rule_is_not_replayed(self, store, tiny_matrix, tmp_path):
        # Cells stored under the scenario content alone carry no pricing
        # version: they were priced by an earlier rule and must miss.
        cells = PricedCellStore()
        sentinel = {field: -1.0 for field in PRICED_FIELDS}
        for scenario in tiny_matrix.expand():
            cells.add(plan_key(scenario.to_dict()), sentinel)
        cells_path = tmp_path / "cells.json"
        cells.save(cells_path)
        runner = SweepRunner(store, plan_store_path=str(cells_path))
        summary = runner.run(tiny_matrix)
        assert summary.priced_hits == 0
        assert summary.tuned == 4
        for record in summary.records:
            assert record["speedup"] > 0
        assert len(runner.plan_store) == 8  # the fresh cells sit beside the stale ones

    def test_ride_along_keys_never_reach_the_result_store(self, store, tiny_matrix, tmp_path):
        SweepRunner(store, plan_store_path=str(tmp_path / "cells.json")).run(tiny_matrix)
        for record in store.records():
            assert "priced_cell" not in record
            assert "cache_entry" not in record


class TestAggregation:
    @pytest.fixture
    def records(self, store, tiny_matrix):
        return SweepRunner(store).run(tiny_matrix).records

    def test_summarize_by_group(self, records):
        summary = summarize_by_group(records)
        assert sum(stats["count"] for stats in summary.values()) == len(records)
        for stats in summary.values():
            assert stats["min_speedup"] <= stats["mean_speedup"] <= stats["max_speedup"]

    def test_scenario_table_lists_every_job(self, records):
        table = scenario_table(records)
        for record in records:
            assert record["job_id"] in table

    def test_group_summary_table_renders(self, records):
        table = group_summary_table(records, keys=("collective",))
        assert "allreduce" in table and "reducescatter" in table

    def test_failed_records_excluded_from_aggregation(self, records):
        poisoned = records + [{"job_id": "x", "status": "error", "scenario": {}}]
        summary = summarize_by_group(poisoned)
        assert sum(stats["count"] for stats in summary.values()) == len(records)
