"""Paper-model conformance: exact shapes, collectives and registry plumbing.

Complements ``test_workloads_models.py`` (structural checks) with the exact
per-model expectations of the paper's Table 4 workloads: every overlap
target's (M, N, K) and collective kind, MoE routing bounds, and the registry
plumbing (device, topology, layers, tokens) the e2e estimator relies on.
"""

import math

import pytest

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import a800_nvlink
from repro.gpu.device import H100
from repro.workloads.e2e import (
    build_workload,
    llama2_training_workload,
    llama3_inference_workload,
    llama3_training_workload,
    mixtral_training_workload,
    step_video_workload,
    workload_builders,
)
from repro.workloads.llm import LLAMA3_70B
from repro.workloads.moe import MIXTRAL_8X7B, route_tokens
from repro.workloads.t2v import STEP_VIDEO_T2V


def _targets(workload):
    """name -> problem for every overlap target of one layer."""
    return {op.name: op.problem for op in workload.operators if op.is_overlap_target}


class TestLlama3Shapes:
    def test_inference_gemm_shapes_and_collectives(self):
        targets = _targets(llama3_inference_workload(chunk_size=16384))
        h, inter, tp = LLAMA3_70B.hidden_size, LLAMA3_70B.intermediate_size, 8
        attn, mlp = targets["attn-out-proj+AR"], targets["mlp-down+AR"]
        assert (attn.shape.m, attn.shape.n, attn.shape.k) == (16384, h, h // tp)
        assert (mlp.shape.m, mlp.shape.n, mlp.shape.k) == (16384, h, inter // tp)
        assert {p.collective for p in targets.values()} == {CollectiveKind.ALL_REDUCE}
        assert all(p.n_gpus == tp for p in targets.values())

    def test_training_forward_and_wgrad_shapes(self):
        targets = _targets(llama3_training_workload(input_tokens=16384))
        h, inter, tp, t = LLAMA3_70B.hidden_size, LLAMA3_70B.intermediate_size, 8, 16384
        assert {p.collective for p in targets.values()} == {CollectiveKind.REDUCE_SCATTER}
        fwd_attn = targets["attn-out-proj+RS"]
        assert (fwd_attn.shape.m, fwd_attn.shape.n, fwd_attn.shape.k) == (t, h, h // tp)
        wgrad_out = targets["bwd-wgrad-out-proj+RS"]
        assert (wgrad_out.shape.m, wgrad_out.shape.n, wgrad_out.shape.k) == (h, h // tp, t)
        wgrad_mlp = targets["bwd-wgrad-mlp-down+RS"]
        assert (wgrad_mlp.shape.m, wgrad_mlp.shape.n, wgrad_mlp.shape.k) == (inter // tp, h, t)


class TestMixtralShapes:
    def test_expert_a2a_shapes_carry_measured_imbalance(self):
        workload = mixtral_training_workload(input_tokens=32768)
        targets = _targets(workload)
        h = MIXTRAL_8X7B.hidden_size
        inter = MIXTRAL_8X7B.expert_intermediate_size // 2  # TP=2 shard
        per_gpu = math.ceil(32768 * MIXTRAL_8X7B.top_k / 4)  # EP=4
        down = targets["expert-down+A2A"]
        assert (down.shape.m, down.shape.n, down.shape.k) == (per_gpu, h, inter)
        dgrad = targets["bwd-expert-dgrad+A2A"]
        assert (dgrad.shape.m, dgrad.shape.n, dgrad.shape.k) == (per_gpu, inter, h)
        expected = route_tokens(32768, MIXTRAL_8X7B, ep=4).imbalance_factor
        for name in ("expert-down+A2A", "bwd-expert-dgrad+A2A"):
            assert targets[name].collective is CollectiveKind.ALL_TO_ALL
            assert targets[name].imbalance == pytest.approx(expected)
        # The TP=2 attention block adds one AllReduce target at full tokens.
        attn = targets["attn-out-proj+AR"]
        assert (attn.shape.m, attn.shape.k) == (32768, h // 2)
        assert attn.collective is CollectiveKind.ALL_REDUCE


class TestStepVideoShapes:
    def test_three_allreduce_projections(self):
        targets = _targets(step_video_workload(input_tokens=33792))
        h, inter, tp, t = STEP_VIDEO_T2V.hidden_size, STEP_VIDEO_T2V.intermediate_size, 4, 33792
        assert set(targets) == {"self-attn-out+AR", "cross-attn-out+AR", "mlp-down+AR"}
        for name in ("self-attn-out+AR", "cross-attn-out+AR"):
            assert (targets[name].shape.m, targets[name].shape.n, targets[name].shape.k) == (
                t, h, h // tp,
            )
        mlp = targets["mlp-down+AR"]
        assert (mlp.shape.m, mlp.shape.n, mlp.shape.k) == (t, h, inter // tp)
        assert {p.collective for p in targets.values()} == {CollectiveKind.ALL_REDUCE}


class TestMoERouting:
    def test_determinism_per_seed(self):
        for seed in range(5):
            a = route_tokens(4096, MIXTRAL_8X7B, ep=4, seed=seed)
            b = route_tokens(4096, MIXTRAL_8X7B, ep=4, seed=seed)
            assert (a.tokens_per_expert == b.tokens_per_expert).all()
            assert a.imbalance_factor == b.imbalance_factor

    def test_imbalance_factor_bounds(self):
        # The most-loaded GPU holds between the mean (factor 1) and
        # everything (factor ep); token counts are conserved exactly.
        for seed in range(10):
            report = route_tokens(4096, MIXTRAL_8X7B, ep=4, seed=seed)
            assert 1.0 <= report.imbalance_factor <= 4.0
            assert report.tokens_per_gpu.sum() == 4096 * MIXTRAL_8X7B.top_k
            assert (report.tokens_per_expert >= 0).all()


class TestRegistryPlumbing:
    def test_registry_builders_propagate_knobs(self):
        topology = a800_nvlink(4)
        for name in workload_builders():
            workload = build_workload(name, tokens=1024, device=H100, topology=topology, layers=2)
            assert workload.layers == 2, name
            targets = _targets(workload)
            for op_name, problem in targets.items():
                assert problem.device is H100, (name, op_name)
                assert problem.topology is topology, (name, op_name)
            # Every overlap target's GEMM work is linear in the input tokens.
            doubled = _targets(build_workload(name, tokens=2048, device=H100, topology=topology))
            assert {op: p.shape.m * p.shape.k for op, p in doubled.items()} == {
                op: 2 * p.shape.m * p.shape.k for op, p in targets.items()
            }, name

    def test_registry_layer_defaults_match_paper(self):
        # The paper truncates the training models to 8 / 4 layers per node.
        layers = {name: build_workload(name, tokens=512).layers for name in workload_builders()}
        assert layers["mixtral-training"] == 4
        assert all(count == 8 for name, count in layers.items() if name != "mixtral-training")

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_workload("gpt-17")

    def test_explicit_topology_rederives_tp(self):
        # A multi-node placement must stay a realizable configuration: the
        # sharded GEMM dimensions follow the collective's GPU count.
        from repro.comm.topology import multinode_a800

        topology = multinode_a800(n_nodes=2, gpus_per_node=8)
        inference = build_workload("llama3-inference", tokens=16384, topology=topology)
        attn = _targets(inference)["attn-out-proj+AR"]
        assert attn.shape.k == LLAMA3_70B.hidden_size // 16
        assert attn.n_gpus == 16
        assert "TP=16" in inference.name

        moe = build_workload("mixtral-training", tokens=4096, topology=topology)
        down = _targets(moe)["expert-down+A2A"]
        assert down.shape.k == MIXTRAL_8X7B.expert_intermediate_size // 4  # TP = 16/EP
        assert "EP=4, TP=4" in moe.name

    def test_mixtral_rejects_indivisible_gpu_count(self):
        with pytest.raises(ValueError, match="divisible by EP=4"):
            build_workload("mixtral-training", tokens=1024, topology=a800_nvlink(6))

    def test_llama2_is_the_fifth_workload(self):
        assert set(workload_builders()) == {
            "llama3-inference",
            "llama3-training",
            "llama2-training",
            "mixtral-training",
            "step-video",
        }
        workload = llama2_training_workload(input_tokens=2048, layers=1)
        assert "Llama2-7B" in workload.name
