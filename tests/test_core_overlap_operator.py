"""Tests for the high-level FlashOverlapOperator (repro.core.overlap)."""

from dataclasses import replace

import pytest

from repro.comm.primitives import CollectiveKind
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem
from repro.core.overlap import FlashOverlapOperator, price_plan
from repro.core.wave_grouping import WavePartition
from repro.gpu.gemm import GemmShape
from repro.plans.cache import PlanCache


def _fallback_problem() -> OverlapProblem:
    """Tiny communication under heavy SM contention: the tuner falls back."""
    from repro.comm.topology import a800_nvlink
    from repro.gpu.device import A800

    return OverlapProblem(
        shape=GemmShape(4096, 4096, 16384),
        device=A800,
        topology=a800_nvlink(2),
        collective=CollectiveKind.REDUCE_SCATTER,
    )


@pytest.fixture
def operator(small_problem, fast_settings):
    return FlashOverlapOperator(small_problem, fast_settings)


@pytest.fixture
def paper_operator(paper_problem_4090, fast_settings):
    return FlashOverlapOperator(paper_problem_4090, fast_settings)


class TestPlanning:
    def test_plan_covers_all_tiles(self, operator):
        plan = operator.plan()
        plan.reorder_plan.validate()
        assert plan.partition.num_waves == operator.executor.num_waves()
        assert plan.num_groups == plan.partition.num_groups

    def test_plan_is_cached_for_tuned_partition(self, operator):
        assert operator.plan() is operator.plan()

    def test_tuned_plan_records_tuning(self, paper_operator):
        plan = paper_operator.plan()
        assert plan.tuning == paper_operator.report().tuning
        assert plan.tuning.partition == plan.partition

    def test_tuner_runs_once_for_pricing_and_planning(self, paper_operator, monkeypatch):
        tune = paper_operator.tuner.tune
        calls = []

        def counting_tune(problem, *args):
            calls.append(problem)
            return tune(problem, *args)

        monkeypatch.setattr(paper_operator.tuner, "tune", counting_tune)
        result = paper_operator.simulate()
        paper_operator.report()
        paper_operator.speedup()
        plan = paper_operator.plan()
        assert calls == [paper_operator.problem]
        assert result.partition == plan.partition == plan.tuning.partition

    def test_explicit_partition_is_priced_as_given(self, paper_operator):
        waves = paper_operator.executor.num_waves()
        partition = WavePartition.equal_groups(waves, 3)
        # price_plan prices the same partition as given, unless the
        # sequential fallback beats it.
        tuning = replace(paper_operator.report().tuning, partition=partition)
        priced = price_plan(paper_operator.problem, tuning, paper_operator.settings)
        assert priced.overlap_latency == min(
            paper_operator.executor.simulate(partition).latency,
            paper_operator.executor.simulate_sequential().latency,
        )


class TestPerformance:
    def test_report_fields_consistent(self, paper_operator):
        report = paper_operator.report()
        assert report.overlap_latency < report.non_overlap_latency
        assert report.theoretical_latency <= report.non_overlap_latency
        assert report.speedup > 1.0
        assert report.speedup == pytest.approx(
            report.non_overlap_latency / report.overlap_latency
        )
        assert 0 < report.ratio_of_theoretical <= 1.1

    def test_speedup_in_paper_range(self, paper_operator):
        # Operator-level speedups in the paper stay within (1.0, 1.65].
        assert 1.0 < paper_operator.speedup() < 1.75

    def test_misconfigured_partition_is_slower(self, paper_operator):
        tuned = paper_operator.simulate().latency
        waves = paper_operator.executor.num_waves()
        misconfigured = paper_operator.executor.simulate(WavePartition.single_group(waves)).latency
        assert tuned <= misconfigured

    def test_sequential_fallback_used_when_overlap_hurts(self, fast_settings):
        operator = FlashOverlapOperator(_fallback_problem(), fast_settings)
        report = operator.report()
        # Whether or not the fallback triggers, FlashOverlap never loses more
        # than the modeling noise against the sequential execution.
        assert report.speedup > 0.97


class TestPricingBuildsNoFunctionalPlan:
    """``simulate``/``report``/``speedup`` and ``compare_methods`` price from the
    tuning result alone: no tile-to-group assignment, no reorder plan."""

    @pytest.mark.parametrize("problem_name", ["paper_problem_4090", "fallback"])
    def test_pricing_matches_the_functional_plan(self, request, problem_name, monkeypatch):
        from repro.analysis.speedup import compare_methods
        from repro.core.baselines import NonOverlapBaseline
        from repro.core.signaling import GroupAssignment

        problem = (
            _fallback_problem() if problem_name == "fallback"
            else request.getfixturevalue(problem_name)
        )
        expected_operator = FlashOverlapOperator(problem)
        plan = expected_operator.plan()
        assert plan.use_overlap is (problem_name != "fallback")
        expected = expected_operator.simulate(plan).latency
        non_overlap = NonOverlapBaseline(DEFAULT_SETTINGS).latency(problem)

        def forbidden(*args, **kwargs):
            raise AssertionError("pricing built a functional plan")

        monkeypatch.setattr(GroupAssignment, "build", forbidden)
        monkeypatch.setattr("repro.core.overlap.build_reorder_plan", forbidden)
        operator = FlashOverlapOperator(problem)
        assert operator.simulate().latency == expected
        report = operator.report()
        assert report.tuning.use_overlap is plan.use_overlap
        assert report.overlap_latency == expected
        assert report.non_overlap_latency == non_overlap
        assert operator.speedup() == non_overlap / expected
        comparison = compare_methods(report)
        assert comparison.speedups["flashoverlap"] == non_overlap / expected


def _serving_problem() -> OverlapProblem:
    """A decode GEMM+AllReduce whose tuned overlap loses to the sequential run."""
    from repro.comm.topology import a800_nvlink
    from repro.gpu.device import A800

    return OverlapProblem(
        shape=GemmShape(16, 8192, 2048),
        device=A800,
        topology=a800_nvlink(4),
        collective=CollectiveKind.ALL_REDUCE,
    )


class TestOneFallbackRule:
    """The operator and the plan store price through the one ``price_plan``."""

    @pytest.mark.parametrize("which", ["paper", "fallback", "serving"])
    def test_operator_report_equals_the_plan_store_entry(self, paper_problem_4090, which):
        problem = {
            "paper": paper_problem_4090,
            "fallback": _fallback_problem(),
            "serving": _serving_problem(),
        }[which]
        report = FlashOverlapOperator(problem, DEFAULT_SETTINGS).report()
        assert report == PlanCache(DEFAULT_SETTINGS).lookup(problem)
        assert report.speedup >= 1.0

    def test_a_predicted_overlap_that_loses_falls_back(self):
        operator = FlashOverlapOperator(_serving_problem())
        assert operator.tuner.tune(operator.problem).use_overlap
        report = operator.report()
        assert not report.tuning.use_overlap
        assert not operator.plan().use_overlap
        assert operator.simulate().latency == report.overlap_latency
        assert report.overlap_latency == operator.executor.simulate_sequential().latency


class TestNumericCorrectness:
    def test_allreduce_numeric(self, operator):
        result = operator.run_numeric()
        assert result.allclose()

    def test_allreduce_numeric_with_real_gemm(self, operator):
        result = operator.run_numeric(compute_gemm=True)
        assert result.allclose()

    def test_reduce_scatter_numeric(self, small_problem, fast_settings):
        problem = small_problem.with_collective(CollectiveKind.REDUCE_SCATTER)
        operator = FlashOverlapOperator(problem, fast_settings)
        assert operator.run_numeric().allclose()

    def test_all_to_all_numeric(self, small_problem, fast_settings):
        problem = small_problem.with_collective(CollectiveKind.ALL_TO_ALL)
        operator = FlashOverlapOperator(problem, fast_settings)
        assert operator.run_numeric().allclose()

    def test_numeric_deterministic_with_seed(self, operator):
        a = operator.run_numeric()
        b = operator.run_numeric()
        assert a.max_abs_error() == b.max_abs_error()
