"""Text-to-video (DiT) workloads under tensor parallelism.

Step-Video-T2V-style diffusion transformers process very long token sequences
(tens of thousands of spatio-temporal patches), so the tensor-parallel
projections that feed an AllReduce are large and their communication share is
substantial -- the paper's Fig. 4 shows the biggest "GEMM + AR" share for this
workload, and Fig. 12 its biggest end-to-end gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import Topology
from repro.core.config import OverlapProblem
from repro.gpu.device import GPUSpec
from repro.gpu.gemm import GemmShape
from repro.workloads.llm import (
    ModelConfig,
    _attention_latency,
    _elementwise_latency,
    _gemm_latency,
)
from repro.workloads.operators import OperatorInstance
from repro.workloads.parallelism import ParallelismConfig


@dataclass(frozen=True)
class DiTConfig:
    """Diffusion-transformer configuration."""

    name: str
    hidden_size: int
    intermediate_size: int
    num_layers: int
    num_heads: int

    @property
    def dense(self) -> ModelConfig:
        return ModelConfig(
            name=self.name,
            hidden_size=self.hidden_size,
            intermediate_size=self.intermediate_size,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            num_kv_heads=self.num_heads,
        )


STEP_VIDEO_T2V = DiTConfig(
    name="Step-Video-T2V",
    hidden_size=6144,
    intermediate_size=24576,
    num_layers=48,
    num_heads=48,
)


def t2v_inference_layer(
    config: DiTConfig,
    tokens: int,
    parallelism: ParallelismConfig,
    device: GPUSpec,
    topology: Topology,
) -> list[OperatorInstance]:
    """One DiT block under TP inference.

    Self-attention and cross-attention output projections plus the MLP down
    projection are row-parallel and followed by an AllReduce (the overlap
    targets); everything else is "others".
    """
    tp = parallelism.tp
    hidden = config.hidden_size
    inter = config.intermediate_size
    dense = config.dense
    ops: list[OperatorInstance] = []

    ops.append(
        OperatorInstance(
            name="self-attn-qkv",
            other_latency=_gemm_latency(GemmShape(tokens, 3 * hidden // tp, hidden), device),
        )
    )
    ops.append(
        OperatorInstance(
            name="self-attention-core",
            other_latency=_attention_latency(tokens, dense, parallelism, device, causal=False),
        )
    )
    ops.append(
        OperatorInstance(
            name="self-attn-out+AR",
            problem=OverlapProblem(
                shape=GemmShape(tokens, hidden, hidden // tp),
                device=device,
                topology=topology,
                collective=CollectiveKind.ALL_REDUCE,
            ),
        )
    )
    ops.append(
        OperatorInstance(
            name="cross-attn(q,kv,core)",
            other_latency=(
                _gemm_latency(GemmShape(tokens, hidden // tp, hidden), device)
                + _elementwise_latency(tokens * hidden, device, passes=2)
            ),
        )
    )
    ops.append(
        OperatorInstance(
            name="cross-attn-out+AR",
            problem=OverlapProblem(
                shape=GemmShape(tokens, hidden, hidden // tp),
                device=device,
                topology=topology,
                collective=CollectiveKind.ALL_REDUCE,
            ),
        )
    )
    ops.append(
        OperatorInstance(
            name="mlp-up",
            other_latency=_gemm_latency(GemmShape(tokens, inter // tp, hidden), device),
        )
    )
    ops.append(
        OperatorInstance(
            name="mlp-down+AR",
            problem=OverlapProblem(
                shape=GemmShape(tokens, hidden, inter // tp),
                device=device,
                topology=topology,
                collective=CollectiveKind.ALL_REDUCE,
            ),
        )
    )
    ops.append(
        OperatorInstance(
            name="adaln+norms+residual",
            other_latency=_elementwise_latency(tokens * hidden, device, passes=8),
        )
    )
    return ops
