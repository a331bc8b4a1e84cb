"""CLI <-> facade parity, the report protocol, and ClusterSpec semantics.

Every subcommand's ``--json`` payload must equal the ``to_dict()`` of the
corresponding :mod:`repro.api` call on the same configuration -- the CLI is
a thin shell over the facade, so the two can never drift.  Smoke-sized
configurations keep the suite CI-friendly.
"""

import json

import pytest

import repro.api as api
from repro.cli import main
from repro.cluster import ClusterSpec


def _normalized(report) -> dict:
    """The facade report as plain JSON data (tuples -> lists, etc.)."""
    return json.loads(report.to_json())


def _cli_json(tmp_path, argv: list[str]) -> dict:
    target = tmp_path / "cli.json"
    assert main([*argv, "--json", str(target)]) == 0
    return json.loads(target.read_text(encoding="utf-8"))


class TestParity:
    def test_e2e(self, tmp_path):
        cli = _cli_json(tmp_path, ["e2e", "--smoke", "--workload", "llama3-training"])
        assert cli == _normalized(api.estimate(["llama3-training"], smoke=True))

    def test_pp(self, tmp_path):
        cli = _cli_json(tmp_path, ["pp", "--smoke"])
        assert cli == _normalized(api.pp(smoke=True))

    def test_serve(self, tmp_path):
        cli = _cli_json(tmp_path, ["serve", "--smoke"])
        facade = api.serve(smoke=True, cluster=ClusterSpec(topology="a800-nvlink", gpus=4))
        assert cli == _normalized(facade)

    def test_plan(self, tmp_path):
        cli = _cli_json(tmp_path, ["plan", "--smoke"])
        assert cli == _normalized(api.plan(smoke=True))

    def test_sweep(self, tmp_path):
        out = tmp_path / "results.jsonl"
        cli = _cli_json(tmp_path, ["sweep", "--preset", "smoke", "--out", str(out)])
        # Same store: job IDs dedupe, so the records and completion counts of
        # the facade re-run are identical.
        facade = api.sweep(["smoke"], out=out)
        assert cli == _normalized(facade)

    def test_pp_partition_flag(self, tmp_path):
        cli = _cli_json(tmp_path, ["pp", "--smoke", "--partition", "3,1"])
        facade = api.pp(smoke=True, partition=(3, 1))
        assert cli == _normalized(facade)
        assert cli["meta"]["partition"] == [3, 1]


class TestJsonSafety:
    def test_multinode_e2e_report_serializes(self, tmp_path):
        # Simulated latencies here are NumPy floats; a plan's overlap-vs-
        # fallback decision compared them and once leaked an np.bool_.
        argv = ["e2e", "--workload", "llama3-inference", "--tokens", "35328", "--nodes", "2"]
        report = api.estimate(["llama3-inference"], tokens=35328, cluster=ClusterSpec(nodes=2))
        json.dumps(report.to_dict())
        assert _cli_json(tmp_path, argv) == _normalized(report)


class TestReportProtocol:
    @pytest.mark.parametrize("build", [
        lambda: api.estimate(["llama3-training"], smoke=True),
        lambda: api.pp(smoke=True),
        lambda: api.serve(smoke=True),
        lambda: api.plan(smoke=True),
    ])
    def test_protocol_surface(self, build, tmp_path):
        report = build()
        assert isinstance(report.summary_table(), str) and report.summary_table()
        payload = json.loads(report.to_json())
        assert payload == json.loads(json.dumps(report.to_dict(), sort_keys=True, default=list))
        saved = report.save_json(tmp_path / "nested" / "report.json")
        assert json.loads(saved.read_text(encoding="utf-8")) == payload

    def test_serve_requires_traffic(self):
        with pytest.raises(ValueError, match="no requests"):
            api.serve(rate=1e-4, duration=1e-6)

    def test_sweep_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            api.sweep()
        with pytest.raises(ValueError, match="exactly one"):
            api.sweep(["smoke"], config="matrix.json", out=tmp_path / "r.jsonl")


class TestBadInput:
    """Every malformed facade argument raises ``ValueError`` before any work."""

    @pytest.mark.parametrize("call, match", [
        (lambda: api.estimate(["nope"]), "unknown workload 'nope'"),
        (lambda: api.estimate(tokens=0, smoke=True), "tokens must be >= 1"),
        (lambda: api.serve(workload="nope"), "unknown workload 'nope'"),
        (lambda: api.serve(distribution="nope"), "unknown length distribution 'nope'"),
        (lambda: api.pp(["nope"], smoke=True), "unknown workload 'nope'"),
        (lambda: api.pp(schedules=["bogus"], smoke=True), "unknown schedule 'bogus'"),
        (lambda: api.pp(schedules=[], smoke=True), "no schedules requested"),
        (lambda: api.plan("nope", smoke=True), "unknown workload 'nope'"),
        (lambda: api.plan(schedules=["bogus"], smoke=True), "unknown schedule 'bogus'"),
        (lambda: api.plan(layers=0, smoke=True), "layers must be >= 1"),
        (lambda: api.plan(tp_degrees=[0], smoke=True), "TP degrees must be >= 1"),
        (lambda: api.plan(microbatch_counts=[0], smoke=True), "microbatch counts must be >= 1"),
        (lambda: api.plan(max_configs=0, smoke=True), "max_configs must be >= 1"),
        (lambda: api.plan(deadline=-1, smoke=True), "deadline must be >= 0"),
    ], ids=[
        "estimate-workload", "estimate-tokens", "serve-workload", "serve-distribution", "pp-workload",
        "pp-schedule", "pp-no-schedule", "plan-workload", "plan-schedule", "plan-layers",
        "plan-tp", "plan-microbatches", "plan-max-configs", "plan-deadline",
    ])
    def test_raises_value_error(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestClusterSpec:
    def test_paper_default_resolves_to_none(self):
        assert ClusterSpec().resolve() is None

    def test_gpus_scale_the_default_preset(self):
        topology = ClusterSpec(gpus=8).resolve()
        assert topology.n_gpus == 8 and "a800" in topology.name

    def test_named_preset(self):
        topology = ClusterSpec(topology="rtx4090-pcie", gpus=4).resolve()
        assert topology.name == "rtx4090-pcie" and topology.n_gpus == 4

    def test_multinode_overrides_preset(self):
        spec = ClusterSpec(topology="rtx4090-pcie", nodes=2, gpus_per_node=4)
        assert spec.total_gpus == 8
        assert "2node" in spec.resolve().name

    def test_topology_for_tp_inside_one_server(self):
        assert ClusterSpec(gpus=8).topology_for_tp(4).n_gpus == 4

    def test_topology_for_tp_crosses_nodes(self):
        spec = ClusterSpec(nodes=2, gpus_per_node=8)
        assert "2node" in spec.topology_for_tp(16).name
        with pytest.raises(ValueError, match="split"):
            spec.topology_for_tp(12)

    def test_round_trip(self):
        spec = ClusterSpec(device="rtx4090", topology="rtx4090-pcie", gpus=4)
        assert ClusterSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(device="nope")
        with pytest.raises(ValueError):
            ClusterSpec(topology="nope")
        with pytest.raises(ValueError):
            ClusterSpec(gpus=1)
