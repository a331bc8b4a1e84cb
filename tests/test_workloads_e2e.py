"""Tests for the end-to-end operator streams, priced by the e2e estimator (Fig. 4 / Fig. 12)."""

import dataclasses

import pytest

from repro.core.config import OverlapSettings
from repro.e2e import EndToEndEstimator
from repro.workloads.e2e import (
    llama2_training_workload,
    llama3_inference_workload,
    mixtral_training_workload,
    paper_workloads,
    step_video_workload,
)
from repro.workloads.operators import EndToEndWorkload, OperatorInstance


@pytest.fixture
def estimator():
    return EndToEndEstimator(OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0))


@pytest.fixture
def inference(estimator):
    return estimator.estimate(llama3_inference_workload(layers=1))


def _operator_speedups(estimate) -> list[float]:
    return [op.speedup for op in estimate.operators if op.is_overlap_target]


class TestOperatorInstance:
    def test_pattern_labels(self, paper_problem_4090):
        comm_op = OperatorInstance(name="x", problem=paper_problem_4090)
        other = OperatorInstance(name="y", other_latency=1e-3)
        assert comm_op.pattern() == "GEMM+AR"
        assert other.pattern() == "others"
        assert comm_op.is_overlap_target and not other.is_overlap_target

    def test_validation(self, paper_problem_4090):
        with pytest.raises(ValueError):
            OperatorInstance(name="empty")
        with pytest.raises(ValueError):
            OperatorInstance(name="bad", problem=paper_problem_4090, count=0)
        with pytest.raises(ValueError):
            OperatorInstance(name="bad", other_latency=-1.0)


class TestEndToEndWorkload:
    def test_a_workload_is_a_plain_operator_stream(self):
        fields = [field.name for field in dataclasses.fields(EndToEndWorkload)]
        assert fields == ["name", "operators", "layers"]

    def test_breakdown_sums_to_one(self, inference):
        shares = inference.pattern_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["GEMM+AR"] > 0.2  # Fig. 4: GEMM+AR is a large share

    def test_overlap_target_fraction_in_paper_band(self, inference):
        # Sec. 2.3.1: GEMM+AR occupies roughly 30-45% of TP inference time.
        assert 0.25 < 1.0 - inference.pattern_shares()["others"] < 0.55

    def test_flashoverlap_speedup_above_one(self, inference):
        assert 1.02 < inference.speedup < 1.35

    def test_e2e_speedup_below_operator_speedups(self, inference):
        # Amdahl: the end-to-end gain cannot exceed the per-operator gains.
        operator_speedups = _operator_speedups(inference)
        assert operator_speedups
        assert inference.speedup < max(operator_speedups)

    def test_layers_scale_latency_linearly(self, estimator):
        one = estimator.estimate(llama3_inference_workload(layers=1))
        four = estimator.estimate(llama3_inference_workload(layers=4))
        assert four.non_overlap_total == pytest.approx(4 * one.non_overlap_total, rel=1e-6)
        assert four.overlap_total == pytest.approx(4 * one.overlap_total, rel=1e-6)

    def test_invalid_layers(self, paper_problem_4090):
        with pytest.raises(ValueError):
            EndToEndWorkload(name="x", operators=[OperatorInstance("a", paper_problem_4090)], layers=0)


class TestPaperWorkloads:
    def test_all_four_applications_build(self):
        workloads = paper_workloads()
        assert len(workloads) == 4
        names = " ".join(w.name for w in workloads)
        assert "Llama3-70B" in names and "Mixtral" in names and "Step-Video" in names

    def test_mixtral_has_a2a_share(self, estimator):
        shares = estimator.estimate(mixtral_training_workload(layers=1)).pattern_shares()
        assert shares.get("GEMM+A2A", 0.0) > 0.05

    def test_step_video_has_largest_ar_share(self, estimator):
        t2v = estimator.estimate(step_video_workload(layers=1)).pattern_shares()["GEMM+AR"]
        moe = estimator.estimate(mixtral_training_workload(layers=1)).pattern_shares()
        assert t2v > moe.get("GEMM+AR", 0.0)

    def test_every_paper_workload_speeds_up(self, estimator):
        for workload in paper_workloads():
            assert estimator.estimate(workload).speedup > 1.0, workload.name

    def test_llama2_training_workload(self, estimator):
        estimate = estimator.estimate(llama2_training_workload(layers=1))
        assert estimate.pattern_shares().get("GEMM+RS", 0.0) > 0.15
        assert estimate.speedup > 1.0
