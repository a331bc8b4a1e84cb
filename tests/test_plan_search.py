"""End-to-end invariants of the auto-parallelism search (``repro plan``).

The CI-sized smoke space (llama3-training, 8 GPUs, TP/microbatches in
{2, 4, 8}) is searched once per module; the suite then asserts the
acceptance properties of the planner:

* the Pareto frontier has >= 3 non-dominated points and respects dominance;
* the winner is the latency-minimal priced configuration, and every frontier
  configuration replayed as a plain single-config ``repro pp`` run
  reproduces its predicted step latency bit-identically (so the winner also
  beats every swept single-config run);
* the plan store serves > 50% of search lookups from cache;
* dominated-config pruning never changes the frontier (soundness);
* a repeated search gives the same report, byte for byte;
* the winning plan JSON round-trips and replays bit-identically through the
  pp and e2e estimation paths.
"""

import json

import pytest

from oracles.frontier import dominates
from repro.cluster import ClusterSpec
from repro.core.config import OverlapSettings
from repro.plan import ParallelismPlan, search_plan, verify_replay
from repro.plan.planner import estimate_plan
from repro.pp.report import estimate_pipelines
from repro.workloads.pipeline import partition_layers

SMOKE = dict(
    workload="llama3-training",
    cluster=ClusterSpec(gpus=8),
    layers=4,
    tp_degrees=(2, 4, 8),
    microbatch_counts=(2, 4, 8),
)


@pytest.fixture(scope="module")
def smoke_report():
    return search_plan(**SMOKE)


class TestSmokeSearch:
    def test_frontier_has_three_nondominated_points(self, smoke_report):
        frontier = smoke_report.frontier
        assert len(frontier) >= 3
        for a in frontier:
            for b in frontier:
                assert not dominates(a, b)

    def test_winner_is_latency_minimal(self, smoke_report):
        best = min(point.step_latency for point in smoke_report.points)
        assert smoke_report.winner.predicted["step_latency"] == best

    def test_store_hit_rate_exceeds_half(self, smoke_report):
        stats = smoke_report.plan_stats
        assert stats["search_lookups"] > 0
        assert stats["search_hit_rate"] > 0.5

    def test_space_accounting(self, smoke_report):
        space = smoke_report.space
        assert space["total_gpus"] == 8
        assert space["evaluated"] + len(space["pruned"]) == space["batches"]
        assert space["points"] == len(smoke_report.points)
        for entry in space["pruned"]:
            assert "dominated" in entry["reason"] or "budget" in entry["reason"]

    def test_frontier_points_replay_as_single_config_runs(self, smoke_report):
        # Each frontier configuration, swept as a plain `repro pp` run with a
        # fresh estimator, reproduces the searched step latency bit-exactly;
        # the winner's latency-minimality therefore extends to every
        # single-config run of the space.
        cluster = SMOKE["cluster"]
        for point in smoke_report.frontier:
            report = estimate_pipelines(
                names=[SMOKE["workload"]],
                stages=point.stages,
                microbatches=point.microbatches,
                schedules=(point.schedule,),
                device=cluster.device_spec,
                topology=cluster.topology_for_tp(point.tp),
                layers=SMOKE["layers"],
                settings=OverlapSettings(seed=0),
                partition=point.partition,
            )
            replayed = report.estimates[0].schedules[point.schedule].methods[point.method]
            assert replayed.step_latency == point.step_latency

    def test_pruning_never_changes_the_frontier(self, smoke_report):
        unpruned = search_plan(**SMOKE, prune=False)
        assert unpruned.space["pruned"] == []
        assert ({p.config_key for p in unpruned.frontier}
                == {p.config_key for p in smoke_report.frontier})
        # Pruned batches were genuinely dominated: no unpruned point from
        # them beats the winner.
        best = smoke_report.winner.predicted["step_latency"]
        assert min(p.step_latency for p in unpruned.points) == best

    def test_search_is_deterministic(self, smoke_report):
        assert search_plan(**SMOKE).to_json() == smoke_report.to_json()

    def test_report_serializes(self, smoke_report):
        payload = json.loads(smoke_report.to_json())
        assert set(payload) == {"meta", "space", "points", "frontier", "winner", "plan_store"}
        assert payload["winner"]["schedule"] == smoke_report.winner.schedule
        assert smoke_report.summary_table().startswith("Pareto frontier")


class TestWinnerPlan:
    def test_round_trip(self, smoke_report, tmp_path):
        winner = smoke_report.winner
        assert ParallelismPlan.from_dict(winner.to_dict()) == winner
        path = winner.save(tmp_path / "plan.json")
        assert ParallelismPlan.load(path) == winner

    def test_version_check(self, smoke_report):
        payload = smoke_report.winner.to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ParallelismPlan.from_dict(payload)

    def test_replay_is_bit_identical(self, smoke_report):
        result = verify_replay(smoke_report.winner)
        assert result["matches"], result

    def test_estimate_plan_matches_prediction(self, smoke_report):
        winner = smoke_report.winner
        estimate = estimate_plan(winner)
        replayed = estimate.schedules[winner.schedule].methods[winner.method]
        assert replayed.step_latency == winner.predicted["step_latency"]


class TestOnePartitionPerShell:
    def test_uneven_stack_prices_only_the_balanced_split(self):
        # 10 layers do not split evenly across 4 or 8 stages; every feasible
        # shell is still one batch, on the balanced partition.
        layers = 10
        report = search_plan(workload="llama2-training", cluster=ClusterSpec(gpus=8), layers=layers)
        space = report.space
        infeasible = sum(1 for skip in space["skipped"] if skip["stages"] is not None)
        assert space["batches"] == space["shells"] - infeasible
        assert report.points
        for entry in [point.to_dict() for point in report.points] + space["pruned"]:
            assert tuple(entry["partition"]) == partition_layers(layers, entry["stages"])


class TestSearchEdges:
    def test_infeasible_degrees_yield_no_winner(self):
        report = search_plan(
            workload="llama3-training",
            cluster=ClusterSpec(gpus=8),
            layers=4,
            tp_degrees=(3,),
            microbatch_counts=(2,),
        )
        assert report.points == [] and report.winner is None
        assert any("divide" in s["reason"] or "degree" in s["reason"]
                   for s in report.space["skipped"])

    def test_max_configs_budget(self):
        report = search_plan(
            workload="llama3-training",
            cluster=ClusterSpec(gpus=8),
            layers=4,
            tp_degrees=(2, 4),
            microbatch_counts=(2, 4),
            max_configs=1,
        )
        assert report.space["evaluated"] == 1
        assert any("budget" in entry["reason"] for entry in report.space["pruned"])
        assert report.winner is not None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            search_plan(methods=("theoretical",))

    def test_unknown_workload_raises_instead_of_skipping_every_shell(self):
        with pytest.raises(KeyError, match="unknown workload 'nope'"):
            search_plan("nope")

    @pytest.mark.parametrize("field, value, match", [
        ("layers", 0, "layers must be >= 1"),
        ("max_configs", 0, "max_configs must be >= 1"),
        ("deadline_s", -1.0, "deadline must be >= 0"),
        ("tp_degrees", (2, 0), "TP degrees must be >= 1"),
        ("microbatch_counts", (0, 4), "microbatch counts must be >= 1"),
    ], ids=["layers", "max-configs", "deadline", "tp-degrees", "microbatch-counts"])
    def test_malformed_input_raises_instead_of_an_empty_search(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            search_plan(**{**SMOKE, field: value})

    @pytest.mark.parametrize("tokens", [0, -4096])
    def test_non_positive_tokens_raise_instead_of_skipping_every_shell(self, tokens):
        with pytest.raises(ValueError, match="tokens must be >= 1"):
            search_plan(**SMOKE, tokens=tokens)
