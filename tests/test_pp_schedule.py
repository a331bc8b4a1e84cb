"""Unit tests of the pipeline schedule generators, their cell timing, and the
estimator's use of it.

The uniform-cost cases are hand-computed: with S=2 stages, M=4 microbatches
and f = b = w = 1, no transfer delay, the step times are 20 (GPipe with
recomputation), 15 (1F1B) and 13 (zero-bubble).
"""

import pytest

from oracles.replay import critical_path, dependencies
from repro.api import PP_SMOKE
from repro.cluster import ClusterSpec
from repro.core.config import OverlapSettings
from repro.pp import PipelineEstimator
from repro.pp.schedule import (
    KNOWN_SCHEDULES,
    Cell,
    Schedule,
    StageCostVector,
    generate_schedule,
    gpipe_schedule,
    one_f_one_b_schedule,
    zero_bubble_schedule,
)
from repro.workloads.pipeline import build_pipeline_workload

UNIFORM = (StageCostVector(1.0, 1.0, 1.0),) * 2


class TestGeneratorStructure:
    @pytest.mark.parametrize("name", ["gpipe", "1f1b", "zero-bubble"])
    def test_cell_conservation(self, name):
        schedule = generate_schedule(name, UNIFORM, 4)
        for stage, order in enumerate(schedule.stage_orders):
            kinds = [cell.kind for cell in order]
            assert kinds.count("F") == 4
            assert kinds.count("B") == 4
            assert kinds.count("W") == (4 if name == "zero-bubble" else 0)
            assert all(cell.stage == stage for cell in order)
            assert sorted(c.microbatch for c in order if c.kind == "F") == [0, 1, 2, 3]

    def test_gpipe_orders_and_recompute(self):
        schedule = gpipe_schedule(UNIFORM, 2)
        assert [(c.kind, c.microbatch) for c in schedule.stage_orders[0]] == [
            ("F", 0), ("F", 1), ("B", 0), ("B", 1),
        ]
        # Backward cells carry the recomputed forward: duration f + b + w = 3.
        assert [c.duration for c in schedule.stage_orders[0]] == [1.0, 1.0, 3.0, 3.0]
        assert schedule.recompute == (1.0, 1.0)
        assert schedule.useful_work() == pytest.approx(2 * 2 * 3.0)

    def test_1f1b_warmup_depth_per_stage(self):
        schedule = one_f_one_b_schedule((StageCostVector(1.0, 1.0, 1.0),) * 3, 4)
        # Stage s warms up with min(M, S - s - 1) forwards.
        for stage, warmup in enumerate((2, 1, 0)):
            kinds = [c.kind for c in schedule.stage_orders[stage]]
            assert kinds[:warmup] == ["F"] * warmup
            assert kinds[warmup] == "F" and kinds[warmup + 1] == "B"

    def test_zero_bubble_splits_backward(self):
        schedule = zero_bubble_schedule(UNIFORM, 4)
        assert schedule.split_backward
        durations = {c.kind: c.duration for c in schedule.stage_orders[0]}
        assert durations == {"F": 1.0, "B": 1.0, "W": 1.0}

    def test_unknown_schedule_name(self):
        with pytest.raises(KeyError, match="unknown schedule"):
            generate_schedule("dualpipe", UNIFORM, 2)

    def test_degenerate_single_stage_single_microbatch(self):
        stages = (StageCostVector(2.0, 1.0, 0.5),)
        assert one_f_one_b_schedule(stages, 1).makespan == 3.5
        assert zero_bubble_schedule(stages, 1).makespan == 3.5
        # GPipe still pays the recomputation even on one stage.
        assert gpipe_schedule(stages, 1).makespan == 5.5


class TestHandComputedSteps:
    def test_uniform_two_stage_steps(self):
        for name, expected in (("gpipe", 20.0), ("1f1b", 15.0), ("zero-bubble", 13.0)):
            schedule = generate_schedule(name, UNIFORM, 4)
            assert schedule.makespan == expected, name
            assert critical_path(schedule) == expected, name

    def test_uniform_two_stage_stage_work(self):
        # Every stage runs 4 unit F cells and 4 B cells: 1F1B's bundle dgrad +
        # wgrad (2 units), GPipe's also recompute the forward (3 units), and
        # zero-bubble's carry dgrad alone beside 4 unit W cells.
        for name, work, step in (("gpipe", 16.0, 20.0), ("1f1b", 12.0, 15.0),
                                 ("zero-bubble", 12.0, 13.0)):
            schedule = generate_schedule(name, UNIFORM, 4)
            assert schedule.stage_work() == (work, work), name
            assert schedule.stage_work() == tuple(
                sum(cell.duration for cell in order) for order in schedule.stage_orders
            ), name
            assert schedule.makespan == step, name

    def test_transfer_delays_stretch_the_pipeline(self):
        without = one_f_one_b_schedule(UNIFORM, 4).makespan
        with_delay = one_f_one_b_schedule(UNIFORM, 4, fwd_delay=0.25, bwd_delay=0.25)
        assert with_delay.makespan == pytest.approx(without + 4 * 0.25)

    def test_cell_spans_wait_for_transfers_and_the_stage(self):
        stages = (StageCostVector(1.0, 1.5, 0.5), StageCostVector(2.0, 1.0, 1.0))
        schedule = zero_bubble_schedule(stages, 1, fwd_delay=0.5, bwd_delay=0.25)
        spans = {cell.name: (cell.start, cell.end) for cell in schedule.cells()}
        assert spans == {
            "F0@s0": (0.0, 1.0),
            "F0@s1": (1.5, 3.5),  # waits for F0@s0 + 0.5 transfer
            "B0@s1": (3.5, 4.5),
            "W0@s1": (4.5, 5.5),
            "B0@s0": (4.75, 6.25),  # waits for B0@s1 + 0.25 transfer
            "W0@s0": (6.25, 6.75),  # behind B0@s0 on stage 0
        }
        assert schedule.makespan == 6.75
        assert schedule.stage_work() == (3.0, 4.0)
        trace = schedule.trace()
        assert [(span.stream, span.name) for span in trace.spans] == [
            ("stage0", "F0@s0"), ("stage0", "B0@s0"), ("stage0", "W0@s0"),
            ("stage1", "F0@s1"), ("stage1", "B0@s1"), ("stage1", "W0@s1"),
        ]
        trace.validate_stream_order()

    def test_dependencies_of_cells(self):
        schedule = one_f_one_b_schedule(UNIFORM, 2, fwd_delay=0.1, bwd_delay=0.2)
        assert dependencies(schedule, Cell(1, 0, "F", 1.0, 0.0, 1.0)) == [("F0@s0", 0.1)]
        assert dependencies(schedule, Cell(0, 1, "B", 2.0, 0.0, 2.0)) == [
            ("F1@s0", 0.0), ("B1@s1", 0.2),
        ]
        assert dependencies(schedule, Cell(0, 1, "W", 1.0, 0.0, 1.0)) == [("B1@s0", 0.0)]

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least one stage"):
            gpipe_schedule((), 2)
        with pytest.raises(ValueError, match="microbatches"):
            one_f_one_b_schedule(UNIFORM, 0)
        with pytest.raises(ValueError, match="non-negative"):
            StageCostVector(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["forward", "dgrad", "wgrad"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_durations_are_rejected(self, field, value):
        # NaN passed the old `< 0` check and turned every aggregate into NaN.
        durations = {"forward": 1.0, "dgrad": 1.0, "wgrad": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} duration must be finite"):
            StageCostVector(**durations)

    @pytest.mark.parametrize("name", sorted(KNOWN_SCHEDULES))
    @pytest.mark.parametrize("delay", ["fwd_delay", "bwd_delay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_invalid_transfer_delays_are_rejected(self, name, delay, value):
        # A NaN ready time loses every comparison and a negative delay
        # undercuts the transfer: either lets F0@s1 start before F0@s0 ends.
        with pytest.raises(ValueError, match=f"{delay} must be finite and non-negative"):
            generate_schedule(name, UNIFORM, 4, **{delay: value})


class TestEstimatorBuildsNoCells:
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_smoke_estimate_constructs_no_cell(self, monkeypatch, record_trace):
        """Scores, counts and traces read the columns; cells exist on demand only."""
        settings = OverlapSettings()
        cluster = ClusterSpec()
        (name,) = PP_SMOKE["workloads"]
        workload = build_pipeline_workload(
            name, stages=PP_SMOKE["stages"], microbatches=PP_SMOKE["microbatches"],
            layers=PP_SMOKE["layers"], device=cluster.device_spec,
            topology=cluster.resolve(),
        )
        constructed = []
        init = Cell.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Cell, "__init__", counting_init)
        estimate = PipelineEstimator(settings).estimate(workload, record_trace=record_trace)
        assert constructed == []
        # The wrapper does see constructions: the on-demand view makes one per cell.
        costs = (StageCostVector(1.0, 1.0, 1.0),) * workload.num_stages
        schedule = generate_schedule("zero-bubble", costs, workload.microbatches)
        assert len(schedule.cells()) == estimate.schedules["zero-bubble"].num_cells
        assert len(constructed) == schedule.num_cells


class TestEstimatorTraces:
    def test_only_a_traced_estimate_builds_the_overlap_trace(self, monkeypatch):
        settings = OverlapSettings()
        workload = build_pipeline_workload("llama3-training", stages=2, microbatches=4, layers=4)
        estimator = PipelineEstimator(settings)
        traced = estimator.estimate(workload, record_trace=True)
        for estimate in traced.schedules.values():
            assert len(estimate.trace.spans) == estimate.num_cells

        def no_trace(schedule):
            raise AssertionError(f"untraced estimate built a {schedule.name} trace")

        monkeypatch.setattr(Schedule, "trace", no_trace)
        untraced = estimator.estimate(workload)
        for name, estimate in untraced.schedules.items():
            assert estimate.trace is None
            assert estimate.to_dict() == traced.schedules[name].to_dict()
