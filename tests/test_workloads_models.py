"""Tests for the model-level workloads (LLM, MoE, T2V layer builders)."""

import pytest

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import a800_nvlink
from repro.gpu.device import A800
from repro.workloads.llm import LLAMA2_7B, LLAMA3_70B, llm_inference_layer, llm_training_layer
from repro.workloads.moe import MIXTRAL_8X7B, moe_training_layer, route_tokens
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.t2v import STEP_VIDEO_T2V, t2v_inference_layer


class TestModelConfigs:
    def test_llama3_dimensions(self):
        assert LLAMA3_70B.hidden_size == 8192
        assert LLAMA3_70B.intermediate_size == 28672
        assert LLAMA3_70B.head_dim == 128
        assert LLAMA3_70B.kv_hidden == 1024

    def test_llama2_dimensions(self):
        assert LLAMA2_7B.hidden_size == 4096
        assert LLAMA2_7B.num_kv_heads == LLAMA2_7B.num_heads

    def test_mixtral_dense_view(self):
        dense = MIXTRAL_8X7B.dense
        assert dense.hidden_size == 4096
        assert dense.intermediate_size == 14336


class TestLLMLayers:
    @pytest.fixture
    def layer(self):
        return llm_inference_layer(
            LLAMA3_70B, tokens=16384, parallelism=ParallelismConfig(tp=8),
            device=A800, topology=a800_nvlink(8),
        )

    def test_inference_layer_has_two_allreduce_targets(self, layer):
        targets = [op for op in layer if op.is_overlap_target]
        assert len(targets) == 2
        assert all(op.problem.collective is CollectiveKind.ALL_REDUCE for op in targets)

    def test_inference_gemm_shapes_are_tp_sharded(self, layer):
        targets = {op.name: op.problem for op in layer if op.is_overlap_target}
        attn = targets["attn-out-proj+AR"]
        mlp = targets["mlp-down+AR"]
        assert attn.shape.k == LLAMA3_70B.hidden_size // 8
        assert mlp.shape.k == LLAMA3_70B.intermediate_size // 8
        assert attn.shape.m == mlp.shape.m == 16384

    def test_other_operators_have_positive_latency(self, layer):
        for op in layer:
            if not op.is_overlap_target:
                assert op.other_latency > 0

    def test_training_layer_uses_reduce_scatter(self):
        layer = llm_training_layer(
            LLAMA3_70B, tokens=16384, parallelism=ParallelismConfig(tp=8),
            device=A800, topology=a800_nvlink(8),
        )
        targets = [op for op in layer if op.is_overlap_target]
        assert len(targets) >= 4
        assert all(op.problem.collective is CollectiveKind.REDUCE_SCATTER for op in targets)

    def test_training_layer_costs_more_than_inference(self):
        parallelism = ParallelismConfig(tp=8)
        topo = a800_nvlink(8)
        inference = llm_inference_layer(LLAMA3_70B, 16384, parallelism, A800, topo)
        training = llm_training_layer(LLAMA3_70B, 16384, parallelism, A800, topo)
        inference_other = sum(op.other_latency for op in inference)
        training_other = sum(op.other_latency for op in training)
        assert training_other > inference_other


class TestMoE:
    def test_routing_is_imbalanced_but_conserves_tokens(self):
        report = route_tokens(32768, MIXTRAL_8X7B, ep=4, seed=0)
        assert report.tokens_per_expert.sum() == 32768 * MIXTRAL_8X7B.top_k
        assert report.tokens_per_gpu.sum() == 32768 * MIXTRAL_8X7B.top_k
        assert report.imbalance_factor > 1.0

    def test_routing_deterministic_per_seed(self):
        a = route_tokens(1024, MIXTRAL_8X7B, ep=4, seed=7)
        b = route_tokens(1024, MIXTRAL_8X7B, ep=4, seed=7)
        c = route_tokens(1024, MIXTRAL_8X7B, ep=4, seed=8)
        assert (a.tokens_per_expert == b.tokens_per_expert).all()
        assert not (a.tokens_per_expert == c.tokens_per_expert).all()

    def test_lower_concentration_means_more_skew(self):
        skewed = route_tokens(32768, MIXTRAL_8X7B, ep=4, concentration=0.3, seed=1)
        uniform = route_tokens(32768, MIXTRAL_8X7B, ep=4, concentration=50.0, seed=1)
        assert skewed.imbalance_factor > uniform.imbalance_factor

    def test_invalid_ep(self):
        with pytest.raises(ValueError):
            route_tokens(1024, MIXTRAL_8X7B, ep=3)

    def test_moe_layer_has_a2a_targets(self):
        layer = moe_training_layer(
            MIXTRAL_8X7B, tokens=32768, parallelism=ParallelismConfig(tp=2, ep=4),
            device=A800, topology=a800_nvlink(8),
        )
        a2a = [op for op in layer if op.is_overlap_target
               and op.problem.collective is CollectiveKind.ALL_TO_ALL]
        assert len(a2a) == 2
        assert all(op.problem.imbalance > 1.0 for op in a2a)
        # TP=2 also adds an AllReduce target for the attention block.
        ar = [op for op in layer if op.is_overlap_target
              and op.problem.collective is CollectiveKind.ALL_REDUCE]
        assert len(ar) == 1


class TestT2V:
    def test_dit_layer_has_three_allreduce_targets(self):
        layer = t2v_inference_layer(
            STEP_VIDEO_T2V, tokens=33792, parallelism=ParallelismConfig(tp=4),
            device=A800, topology=a800_nvlink(4),
        )
        targets = [op for op in layer if op.is_overlap_target]
        assert len(targets) == 3
        assert all(op.problem.collective is CollectiveKind.ALL_REDUCE for op in targets)
