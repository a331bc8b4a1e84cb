"""Mixture-of-Experts workloads under expert parallelism (GEMM + All-to-All).

MoE layers route each token to ``top_k`` experts; with expert parallelism the
experts live on different GPUs, so the expert outputs must be sent back to the
token's home GPU with an All-to-All -- the GEMM+A2A pattern of Sec. 2.3.3.
Routing is dynamic and imbalanced, which both stretches the collective and
skews the per-GPU GEMM sizes; :func:`route_tokens` generates a reproducible
imbalanced routing and the layer builder feeds the measured imbalance factor
into the overlap problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import Topology
from repro.core.config import OverlapProblem
from repro.gpu.device import GPUSpec
from repro.gpu.gemm import GemmKernelModel, GemmShape
from repro.workloads.llm import ModelConfig, _attention_latency, _elementwise_latency, _gemm_latency
from repro.workloads.operators import OperatorInstance
from repro.workloads.parallelism import ParallelismConfig


@dataclass(frozen=True)
class MoEConfig:
    """Mixture-of-Experts transformer configuration."""

    name: str
    hidden_size: int
    expert_intermediate_size: int
    num_experts: int
    top_k: int
    num_layers: int
    num_heads: int
    num_kv_heads: int

    @property
    def dense(self) -> ModelConfig:
        """The dense (attention) part as a :class:`ModelConfig`."""
        return ModelConfig(
            name=self.name,
            hidden_size=self.hidden_size,
            intermediate_size=self.expert_intermediate_size,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            num_kv_heads=self.num_kv_heads,
        )


MIXTRAL_8X7B = MoEConfig(
    name="Mixtral-8x7B",
    hidden_size=4096,
    expert_intermediate_size=14336,
    num_experts=8,
    top_k=2,
    num_layers=32,
    num_heads=32,
    num_kv_heads=8,
)


@dataclass(frozen=True)
class RoutingReport:
    """Token counts per expert and the resulting per-GPU imbalance."""

    tokens_per_expert: np.ndarray
    tokens_per_gpu: np.ndarray

    @property
    def imbalance_factor(self) -> float:
        """Most-loaded GPU's token count relative to the mean."""
        mean = float(np.mean(self.tokens_per_gpu))
        if mean <= 0:
            return 1.0
        return float(np.max(self.tokens_per_gpu)) / mean


def route_tokens(
    num_tokens: int,
    config: MoEConfig,
    ep: int,
    concentration: float = 2.0,
    seed: int = 0,
) -> RoutingReport:
    """Sample an imbalanced top-k routing.

    Expert popularity is drawn from a Dirichlet distribution; smaller
    ``concentration`` means more skew.  Experts are assigned round-robin to the
    ``ep`` GPUs (Megatron-style) and the per-GPU load is the sum of its
    experts' token counts.
    """
    if ep < 1 or config.num_experts % ep != 0:
        raise ValueError(f"{config.num_experts} experts cannot be split across ep={ep}")
    rng = np.random.default_rng(seed)
    popularity = rng.dirichlet([concentration] * config.num_experts)
    assignments = num_tokens * config.top_k * popularity
    tokens_per_expert = np.floor(assignments).astype(np.int64)
    # Distribute the rounding remainder to the most popular experts.
    deficit = num_tokens * config.top_k - int(tokens_per_expert.sum())
    order = np.argsort(-popularity)
    for i in range(deficit):
        tokens_per_expert[order[i % config.num_experts]] += 1
    experts_per_gpu = config.num_experts // ep
    tokens_per_gpu = tokens_per_expert.reshape(ep, experts_per_gpu).sum(axis=1)
    return RoutingReport(tokens_per_expert=tokens_per_expert, tokens_per_gpu=tokens_per_gpu)


def moe_training_layer(
    config: MoEConfig,
    tokens: int,
    parallelism: ParallelismConfig,
    device: GPUSpec,
    topology: Topology,
) -> list[OperatorInstance]:
    """One MoE transformer layer (forward + backward) under EP (+ optional TP).

    Tokens are routed with :func:`route_tokens` at its default seed.

    The expert down-projection GEMM followed by the All-to-All combine is the
    overlap target; the dispatch All-to-All, the expert up-projection and the
    attention block are "others".
    """
    ep = max(parallelism.ep, 1)
    tp = max(parallelism.tp, 1)
    routing = route_tokens(tokens, config, ep)
    tokens_per_gpu = int(np.ceil(tokens * config.top_k / ep))
    hidden = config.hidden_size
    inter = config.expert_intermediate_size // tp

    ops: list[OperatorInstance] = []
    dense = config.dense

    # Attention block (TP if configured, otherwise replicated).
    attention_parallelism = ParallelismConfig(tp=tp)
    ops.append(
        OperatorInstance(
            name="qkv+attention+out-proj",
            other_latency=(
                _gemm_latency(GemmShape(tokens, (hidden + 2 * dense.kv_hidden) // tp, hidden), device)
                + _attention_latency(tokens, dense, attention_parallelism, device)
                + _gemm_latency(GemmShape(tokens, hidden, hidden // tp), device)
            ),
        )
    )
    if tp > 1:
        ops.append(
            OperatorInstance(
                name="attn-out-proj+AR",
                problem=OverlapProblem(
                    shape=GemmShape(tokens, hidden, hidden // tp),
                    device=device,
                    topology=topology,
                    collective=CollectiveKind.ALL_REDUCE,
                ),
            )
        )

    # Router and dispatch All-to-All (not data-dependent on a single GEMM).
    ops.append(
        OperatorInstance(
            name="router+dispatch-a2a",
            other_latency=_elementwise_latency(tokens * hidden, device, passes=3),
        )
    )
    # Expert up/gate projection (no collective follows it).
    ops.append(
        OperatorInstance(
            name="expert-up-gate",
            other_latency=_gemm_latency(GemmShape(tokens_per_gpu, 2 * inter, hidden), device),
        )
    )
    # Expert down projection followed by the All-to-All combine: GEMM+A2A.
    ops.append(
        OperatorInstance(
            name="expert-down+A2A",
            problem=OverlapProblem(
                shape=GemmShape(tokens_per_gpu, hidden, inter),
                device=device,
                topology=topology,
                collective=CollectiveKind.ALL_TO_ALL,
                imbalance=routing.imbalance_factor,
            ),
        )
    )
    # Backward pass: data/weight gradients of the experts plus the backward
    # All-to-Alls; the wgrad GEMM feeding the gradient A2A is the second
    # overlap target.
    ops.append(
        OperatorInstance(
            name="bwd-attention+dgrads",
            other_latency=(
                2.0 * _attention_latency(tokens, dense, attention_parallelism, device)
                + _gemm_latency(GemmShape(tokens_per_gpu, 2 * inter, hidden), device)
                + _gemm_latency(GemmShape(tokens, hidden, hidden // tp), device)
            ),
        )
    )
    ops.append(
        OperatorInstance(
            name="bwd-expert-dgrad+A2A",
            problem=OverlapProblem(
                shape=GemmShape(tokens_per_gpu, inter, hidden),
                device=device,
                topology=topology,
                collective=CollectiveKind.ALL_TO_ALL,
                imbalance=routing.imbalance_factor,
            ),
        )
    )
    ops.append(
        OperatorInstance(
            name="bwd-others(wgrad, optimizer, norms)",
            other_latency=(
                _gemm_latency(GemmShape(hidden, 2 * inter, tokens_per_gpu), device)
                + _elementwise_latency(tokens * hidden, device, passes=6)
            ),
        )
    )
    return ops
