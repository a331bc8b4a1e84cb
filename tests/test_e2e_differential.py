"""Property-based differential tests of the e2e and pipeline estimators.

For random small workloads the estimator must be a pure aggregator:

* the whole-model total equals the in-order sum of *independently* simulated
  operators when plan reuse is disabled (no hidden coupling between
  operators), and
* enabling plan reuse changes wall-clock cost only -- every reported latency
  is bit-identical to the no-reuse run.

The pipeline estimator (:mod:`repro.pp`) must degenerate to the e2e
estimator: with one stage and one microbatch its embedded e2e totals are
bit-identical to a plain e2e estimate of the same workload (same code path,
same plan store), the non-recomputing schedules' step time collapses to the
whole-model total, and plan-store reuse stays a pure optimisation for
pipeline runs too.

Shapes are tiny (8x8 tiles on an 8-SM device) so each tuner invocation costs
milliseconds; the process-level offline-profile memoization keeps repeated
examples cheap.  The random workloads turn executor jitter and profile noise
off, so two fixed paper-sized runs check reuse under the default settings,
which turn both on.
"""

import pytest
from hypothesis import HealthCheck, given, settings as hsettings
from hypothesis import strategies as st

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import InterconnectKind, Topology
from repro.core.config import OverlapProblem, OverlapSettings
from repro.e2e import EndToEndEstimator, estimate_models
from repro.e2e.estimator import make_plan_store
from repro.gpu.device import GPUSpec
from repro.gpu.gemm import GemmShape, GemmTileConfig
from repro.pp import PipelineEstimator
from repro.workloads.operators import EndToEndWorkload, OperatorInstance
from repro.workloads.pipeline import PipelineWorkload, build_pipeline_workload, partition_layers

TINY_DEVICE = GPUSpec(
    name="tiny-gpu",
    sm_count=8,
    fp16_tflops=4.0,
    hbm_bandwidth_gbps=200.0,
    compute_efficiency=0.8,
    kernel_launch_us=5.0,
)
TINY_TOPOLOGY = Topology(
    name="tiny-pcie",
    n_gpus=4,
    kind=InterconnectKind.PCIE,
    peak_bus_bandwidth_gbps=10.0,
    base_latency_us=20.0,
    half_saturation_mb=0.5,
    comm_sm_count=2,
    supports_p2p=False,
)
TINY_TILES = GemmTileConfig(tile_m=8, tile_n=8, tile_k=8, swizzle_size=2)
FAST = OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


@st.composite
def overlap_problems(draw) -> OverlapProblem:
    m = draw(st.sampled_from([16, 32, 48, 64]))
    n = draw(st.sampled_from([16, 32, 64]))
    k = draw(st.sampled_from([32, 64]))
    collective = draw(
        st.sampled_from(
            [CollectiveKind.ALL_REDUCE, CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALL_TO_ALL]
        )
    )
    imbalance = draw(st.sampled_from([1.0, 1.2]))
    return OverlapProblem(
        shape=GemmShape(m=m, n=n, k=k),
        device=TINY_DEVICE,
        topology=TINY_TOPOLOGY,
        collective=collective,
        gemm_config=TINY_TILES,
        imbalance=imbalance,
    )


@st.composite
def operators(draw, index: int = 0) -> OperatorInstance:
    count = draw(st.integers(min_value=1, max_value=2))
    # Mix forward, input-gradient and weight-gradient operators (the naming
    # convention repro.pp.pricing classifies cells by).
    name = draw(
        st.sampled_from([f"op{index}", f"bwd-op{index}", f"bwd-wgrad-op{index}"])
    )
    if draw(st.booleans()):
        return OperatorInstance(
            name=name, problem=draw(overlap_problems()), count=count
        )
    latency = draw(
        st.floats(min_value=1e-6, max_value=1e-3, allow_nan=False, allow_infinity=False)
    )
    return OperatorInstance(name=name, other_latency=latency, count=count)


@st.composite
def workloads(draw) -> EndToEndWorkload:
    n_ops = draw(st.integers(min_value=1, max_value=5))
    ops = [draw(operators(index=i)) for i in range(n_ops)]
    layers = draw(st.integers(min_value=1, max_value=3))
    return EndToEndWorkload(name="random", operators=ops, layers=layers)


@hsettings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads())
def test_total_is_sum_of_independent_operators(workload):
    """No reuse: the total is the chained sum of per-operator simulations."""
    estimate = EndToEndEstimator(FAST, reuse=False).estimate(workload)

    expected_overlap = 0.0
    expected_non_overlap = 0.0
    for _ in range(workload.layers):
        for op in workload.operators:
            if op.problem is not None:
                # A fresh, reuse-free store per operator: fully independent.
                plan = make_plan_store(FAST, reuse=False).lookup(op.problem)
                overlap, non_overlap = plan.overlap_latency, plan.non_overlap_latency
            else:
                overlap = non_overlap = op.other_latency
            for _ in range(op.count):
                expected_overlap += overlap
                expected_non_overlap += non_overlap

    assert estimate.overlap_total == expected_overlap
    assert estimate.non_overlap_total == expected_non_overlap


@hsettings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads())
def test_reuse_is_bit_identical_to_no_reuse(workload):
    """Plan reuse is a pure optimisation: every reported number is unchanged."""
    reused = EndToEndEstimator(FAST, reuse=True).estimate(workload)
    unreused = EndToEndEstimator(FAST, reuse=False).estimate(workload)

    assert reused.overlap_total == unreused.overlap_total
    assert reused.non_overlap_total == unreused.non_overlap_total
    assert reused.theoretical_total == unreused.theoretical_total
    for a, b in zip(reused.operators, unreused.operators):
        assert a.overlap_latency == b.overlap_latency
        assert a.non_overlap_latency == b.non_overlap_latency
        assert a.theoretical_latency == b.theoretical_latency
        assert a.use_overlap == b.use_overlap


def test_reuse_is_bit_identical_with_default_settings():
    """All five paper workloads, jitter and profile noise on: reuse changes nothing."""
    reused = estimate_models(layers=2, settings=OverlapSettings(), reuse=True)
    unreused = estimate_models(layers=2, settings=OverlapSettings(), reuse=False)

    assert reused.plan_stats["tuner_invocations"] < unreused.plan_stats["tuner_invocations"]
    for estimate, other in zip(reused.estimates, unreused.estimates, strict=True):
        assert estimate.name == other.name
        assert estimate.overlap_total == other.overlap_total
        assert estimate.non_overlap_total == other.non_overlap_total
        assert estimate.theoretical_total == other.theoretical_total
        for a, b in zip(estimate.operators, other.operators, strict=True):
            assert a.overlap_latency == b.overlap_latency
            assert a.non_overlap_latency == b.non_overlap_latency
            assert a.theoretical_latency == b.theoretical_latency
            assert a.use_overlap == b.use_overlap


# -- pipeline estimator differentials -----------------------------------------------


@st.composite
def pipeline_workloads(draw) -> PipelineWorkload:
    workload = draw(workloads())
    stages = draw(st.integers(min_value=1, max_value=min(2, workload.layers)))
    microbatches = draw(st.integers(min_value=1, max_value=3))
    return PipelineWorkload(
        name="random-pipeline",
        microbatch=workload,
        stage_layers=partition_layers(workload.layers, stages),
        microbatches=microbatches,
        activation_bytes=draw(st.sampled_from([0.0, 64 * 16 * 2.0])),
        topology=TINY_TOPOLOGY,
    )


@hsettings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads())
def test_pipeline_s1m1_degenerates_to_e2e(workload):
    """One stage, one microbatch: the pipeline run IS the e2e estimate."""
    pipeline = PipelineWorkload(
        name="degenerate",
        microbatch=workload,
        stage_layers=(workload.layers,),
        microbatches=1,
    )
    estimate = PipelineEstimator(FAST).estimate(pipeline)
    reference = EndToEndEstimator(FAST).estimate(workload)

    # The embedded e2e totals are bit-identical (same code path, same plan
    # store latencies) -- including the per-operator table and the hit/miss
    # stats of a fresh store.
    assert estimate.microbatch_estimate.to_dict() == reference.to_dict()

    # Without pipelining there are no bubbles: the non-recomputing schedules
    # collapse to the straight-through model total (the float sums group
    # per-cell rather than per-occurrence, hence approx, not ==).  A
    # forward-only stream gets its backward synthesized as ~2x forward, so
    # its step is three model totals.
    factor = 3.0 if estimate.synthesized_backward else 1.0
    for name in ("1f1b", "zero-bubble"):
        schedule = estimate.schedules[name]
        expected = factor * reference.overlap_total
        assert schedule.step_latency == pytest.approx(expected, rel=1e-9)
        assert schedule.bubble_ratio == pytest.approx(0.0, abs=1e-9)
        non_overlap = schedule.methods["non-overlap"].step_latency
        assert non_overlap == pytest.approx(factor * reference.non_overlap_total, rel=1e-9)
        bound = schedule.methods["theoretical"].step_latency
        assert bound == pytest.approx(factor * reference.theoretical_total, rel=1e-9)
    # GPipe still pays its activation recomputation even on one stage
    # (equality only when the stream has no forward work to recompute).
    assert (
        estimate.schedules["gpipe"].step_latency
        >= estimate.schedules["1f1b"].step_latency
    )


@hsettings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pipeline=pipeline_workloads())
def test_pipeline_reuse_is_bit_identical(pipeline):
    """Plan-store reuse never changes a pipeline schedule estimate."""
    reused = PipelineEstimator(FAST, reuse=True).estimate(pipeline)
    unreused = PipelineEstimator(FAST, reuse=False).estimate(pipeline)

    assert reused.microbatch_estimate.overlap_total == unreused.microbatch_estimate.overlap_total
    for name, schedule in reused.schedules.items():
        other = unreused.schedules[name]
        for method, result in schedule.methods.items():
            assert result.step_latency == other.methods[method].step_latency
            assert result.bubble_ratio == other.methods[method].bubble_ratio
            assert result.stage_busy == other.methods[method].stage_busy
            assert result.useful_work == other.methods[method].useful_work


def test_pipeline_reuse_is_bit_identical_with_default_settings():
    """llama3-training at 2 stages x 4 microbatches x 4 layers, jitter and noise on."""
    settings = OverlapSettings()

    def step_latencies(reuse: bool) -> dict:
        workload = build_pipeline_workload("llama3-training", stages=2, microbatches=4, layers=4)
        estimate = PipelineEstimator(settings, reuse=reuse).estimate(workload)
        return {
            (name, method): result.step_latency
            for name, schedule in estimate.schedules.items()
            for method, result in schedule.methods.items()
        }

    assert step_latencies(reuse=True) == step_latencies(reuse=False)
