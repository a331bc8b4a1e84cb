"""Tests for the declarative scenario matrix (repro.sweep.matrix/presets)."""

import json
from pathlib import Path

import pytest

from repro.gpu.gemm import GemmShape
from repro.plans.store import plan_key
from repro.sweep.matrix import Platform, Scenario, ScenarioMatrix
from repro.sweep.presets import _layer_matrix, matrix_from_preset, sweep_presets
from repro.workloads.llm import LLAMA3_70B

#: Every preset's ``to_dict()`` and expansion job IDs.  Regenerate it only for
#: an intended change to a preset:
#: ``{name: {"matrix": m.to_dict(), "job_ids": [s.job_id for s in m.expand()]}}``
#: over ``sweep_presets()``, written with ``json.dumps(..., indent=1, sort_keys=True)``.
PRESETS_GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep" / "presets.json"


@pytest.fixture
def small_matrix() -> ScenarioMatrix:
    return ScenarioMatrix.build(
        name="unit",
        workload="unit",
        shapes=[(512, 1024, 1024), (1024, 2048, 1024)],
        platforms=[("rtx4090", "rtx4090-pcie", 4), ("a800", "a800-nvlink", 4)],
        collectives=["allreduce", "reducescatter"],
        seeds=[0, 1],
    )


class TestExpansion:
    def test_cartesian_size(self, small_matrix):
        # 2 shapes x 2 platforms x 2 collectives x 2 seeds
        assert len(small_matrix.expand()) == 16

    def test_expansion_is_deterministic(self, small_matrix):
        first = [s.job_id for s in small_matrix.expand()]
        second = [s.job_id for s in small_matrix.expand()]
        assert first == second

    def test_expansion_is_duplicate_free(self, small_matrix):
        ids = [s.job_id for s in small_matrix.expand()]
        assert len(ids) == len(set(ids))

    def test_repeated_axis_values_collapse(self):
        matrix = ScenarioMatrix.build(
            name="dup",
            workload="dup",
            shapes=[(512, 1024, 1024), (512, 1024, 1024)],
            platforms=[("rtx4090", "rtx4090-pcie", 4)],
            collectives=["allreduce", "allreduce"],
        )
        assert len(matrix.expand()) == 1

    def test_job_ids_are_content_derived(self):
        a = Scenario(workload="w", m=512, n=1024, k=1024, device="rtx4090",
                     topology="rtx4090-pcie", gpus=4, collective="allreduce")
        b = Scenario(workload="w", m=512, n=1024, k=1024, device="rtx4090",
                     topology="rtx4090-pcie", gpus=4, collective="allreduce")
        c = Scenario(workload="w", m=512, n=1024, k=2048, device="rtx4090",
                     topology="rtx4090-pcie", gpus=4, collective="allreduce")
        assert a.job_id == b.job_id
        assert a.job_id != c.job_id

    def test_job_id_is_the_workload_and_a_plan_key_prefix(self):
        scenario = Scenario(workload="w", m=512, n=1024, k=1024, device="rtx4090",
                            topology="rtx4090-pcie", gpus=4, collective="allreduce")
        assert scenario.job_id == f"w-{plan_key(scenario.to_dict())[:12]}"
        # Pinned: result files written by earlier versions must still resume.
        assert scenario.job_id == "w-5f3af6ecab2a"


class TestScenarioMaterialisation:
    def test_to_problem_round_trips_axes(self):
        scenario = Scenario(workload="w", m=512, n=1024, k=1024, device="a800",
                            topology="a800-nvlink", gpus=8, collective="reducescatter",
                            imbalance=1.2)
        problem = scenario.to_problem()
        assert problem.shape.m == 512
        assert problem.n_gpus == 8
        assert problem.collective.short_name == "RS"
        assert problem.imbalance == 1.2

    def test_settings_overrides_apply(self):
        scenario = Scenario(
            workload="w", m=512, n=1024, k=1024, device="rtx4090",
            topology="rtx4090-pcie", gpus=4, collective="allreduce",
            seed=7, settings_overrides=(("max_last_group", 2.0), ("signal_poll_us", 5.0)),
        )
        settings = scenario.to_settings()
        assert settings.max_last_group == 2
        assert isinstance(settings.max_last_group, int)
        assert settings.signal_poll_us == 5.0
        assert settings.seed == 7

    def test_unknown_settings_axis_rejected(self):
        with pytest.raises(KeyError, match="unknown OverlapSettings axes"):
            ScenarioMatrix.build(
                name="bad", workload="bad",
                shapes=[(512, 1024, 1024)],
                platforms=[("rtx4090", "rtx4090-pcie", 4)],
                collectives=["allreduce"],
                settings_grid=[{"not_a_field": 1}],
            )

    def test_scenario_dict_round_trip(self):
        scenario = Scenario(
            workload="w", m=512, n=1024, k=1024, device="rtx4090",
            topology="rtx4090-pcie", gpus=4, collective="allreduce",
            imbalance=1.1, seed=3, settings_overrides=(("max_last_group", 3.0),),
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario


class TestMatrixConfig:
    def test_matrix_dict_round_trip(self, small_matrix):
        rebuilt = ScenarioMatrix.from_dict(small_matrix.to_dict())
        assert [s.job_id for s in rebuilt.expand()] == [s.job_id for s in small_matrix.expand()]

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioMatrix.build(name="x", workload="x", shapes=[],
                                 platforms=[("rtx4090", "rtx4090-pcie", 4)],
                                 collectives=["allreduce"])

    def test_platform_needs_two_gpus(self):
        with pytest.raises(ValueError):
            Platform(device="rtx4090", topology="rtx4090-pcie", gpus=1)

    @pytest.mark.parametrize(
        "axis,error,message",
        [
            ({"imbalances": [float("nan")]}, ValueError, "imbalance must be finite"),
            ({"imbalances": [float("inf")]}, ValueError, "imbalance must be finite"),
            ({"imbalances": [0.5]}, ValueError, "imbalance must be finite and >= 1.0"),
            ({"platforms": [("nope", "a800-nvlink", 4)]}, KeyError, "unknown device 'nope'"),
            ({"platforms": [("a800", "nope-net", 4)]}, KeyError, "unknown topology 'nope-net'"),
            ({"collectives": ["broadcast"]}, KeyError, "unknown collective 'broadcast'"),
        ],
        ids=["nan-imbalance", "inf-imbalance", "imbalance-below-one", "unknown-device",
             "unknown-topology", "unknown-collective"],
    )
    def test_bad_axis_value_rejected_at_build(self, axis, error, message):
        axes = {"shapes": [(512, 1024, 1024)], "platforms": [("a800", "a800-nvlink", 4)],
                "collectives": ["allreduce"]}
        with pytest.raises(error, match=message):
            ScenarioMatrix.build(name="x", workload="x", **{**axes, **axis})


class TestPresets:
    def test_every_preset_expands(self):
        for name in sweep_presets():
            scenarios = matrix_from_preset(name).expand()
            assert scenarios, name
            ids = [s.job_id for s in scenarios]
            assert len(ids) == len(set(ids)), name

    def test_every_preset_scenario_materialises(self):
        # Every scenario of every preset must reconstruct into a live problem.
        for name in sweep_presets():
            for scenario in matrix_from_preset(name).expand():
                problem = scenario.to_problem()
                assert problem.output_bytes() > 0

    def test_every_preset_matches_golden(self):
        expected = json.loads(PRESETS_GOLDEN.read_text())
        assert sorted(sweep_presets()) == sorted(expected)
        for name, factory in sweep_presets().items():
            matrix = factory()
            assert matrix.to_dict() == expected[name]["matrix"], name
            assert [s.job_id for s in matrix.expand()] == expected[name]["job_ids"], name

    @pytest.mark.parametrize("tp", [2, 4])
    def test_layer_matrix_sizes_weight_gradients_at_its_tp_degree(self, tp):
        """The training layer is built at the matrix's TP degree, so the
        weight-gradient GEMMs (K = tokens) shard M or N, never K."""
        hidden, inter = LLAMA3_70B.hidden_size, LLAMA3_70B.intermediate_size
        matrix = _layer_matrix("x", "x", "llama3-training", (4096,), "reducescatter", tp)
        assert matrix.platforms == (Platform("a800", "a800-nvlink", tp),)
        assert matrix.shapes == (
            GemmShape(4096, hidden, hidden // tp),
            GemmShape(4096, hidden, inter // tp),
            GemmShape(hidden, hidden // tp, 4096),
            GemmShape(inter // tp, hidden, 4096),
        )

    def test_smoke_preset_is_at_least_twelve_cheap_scenarios(self):
        scenarios = matrix_from_preset("smoke").expand()
        assert len(scenarios) >= 12
        assert all(s.m * s.n <= 2048 * 2048 for s in scenarios)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown sweep preset"):
            matrix_from_preset("nope")

    def test_serving_presets_grid_over_arrival_rates(self):
        from repro.sweep.presets import serving_matrix

        low = serving_matrix(rate_rps=8.0)
        high = serving_matrix(rate_rps=128.0)
        assert low.name == "serving-rate8" and high.name == "serving-rate128"
        assert {s.workload for s in low.expand()} == {"serving-rate8"}
        # Heavier traffic batches more tokens per iteration, reaching larger
        # GEMM M buckets than the light-traffic preset.
        assert max(s.m for s in high.expand()) > max(s.m for s in low.expand())
        # The dry-run derivation is deterministic.
        assert serving_matrix(rate_rps=8.0).expand() == low.expand()
