"""Pipeline-parallel workload descriptions: stage partitions + microbatches.

Pipeline parallelism splits a model's layer stack into contiguous *stages*
(one per pipeline rank) and its input batch into *microbatches* that stream
through the stages.  The scheduling subsystem (:mod:`repro.pp`) prices and
schedules the resulting forward/backward cells; this module provides the
workload side:

* :func:`partition_layers` -- the balanced contiguous stage partition
  (Megatron-style: remainders go to the earliest stages);
* :class:`PipelineWorkload` -- one *microbatch's* operator stream through the
  full layer stack, plus the stage partition, the microbatch count and the
  activation-boundary size that the inter-stage P2P transfers move;
* :func:`build_pipeline_workload` -- the registry entry point: split a
  :mod:`repro.workloads.e2e` workload's input tokens into microbatches and
  attach the stage partition.

The microbatch stream is an ordinary :class:`EndToEndWorkload` (the full
stack, at the *microbatch* token count), so the e2e estimator prices it
through the same shared plan store -- ``repro pp --stages 1 --microbatches 1``
degenerates to exactly ``repro e2e``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.comm.topology import Topology
from repro.gpu.device import A800, GPUSpec
from repro.gpu.gemm import DTYPE_BYTES
from repro.workloads.e2e import build_workload, workload_builders
from repro.workloads.llm import LLAMA2_7B, LLAMA3_70B
from repro.workloads.moe import MIXTRAL_8X7B
from repro.workloads.operators import EndToEndWorkload
from repro.workloads.t2v import STEP_VIDEO_T2V

__all__ = [
    "PipelineWorkload",
    "partition_layers",
    "check_pipeline_inputs",
    "build_pipeline_workload",
]

#: Hidden size of each registry workload: the per-token width of the
#: activation tensor crossing a stage boundary (what the P2P transfers move).
_HIDDEN_SIZES = {
    "llama3-inference": LLAMA3_70B.hidden_size,
    "llama3-training": LLAMA3_70B.hidden_size,
    "llama2-training": LLAMA2_7B.hidden_size,
    "mixtral-training": MIXTRAL_8X7B.hidden_size,
    "step-video": STEP_VIDEO_T2V.hidden_size,
}


def partition_layers(layers: int, stages: int) -> tuple[int, ...]:
    """Balanced contiguous split of ``layers`` across ``stages``.

    The first ``layers % stages`` stages take one extra layer (the Megatron
    convention: early stages carry embeddings in real runs, so they get the
    remainder).  Every stage receives at least one layer.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if layers < stages:
        raise ValueError(
            f"cannot split {layers} layers across {stages} stages "
            "(each stage needs at least one layer)"
        )
    base, extra = divmod(layers, stages)
    return tuple(base + (1 if index < extra else 0) for index in range(stages))


@dataclass(frozen=True)
class PipelineWorkload:
    """One pipeline-parallel workload: a microbatch stream plus its partition.

    ``microbatch`` is the full layer stack priced at the *microbatch* token
    count; ``stage_layers`` assigns those layers to stages
    (``sum(stage_layers) == microbatch.layers``).  ``activation_bytes`` is the
    size of the tensor one microbatch sends across a stage boundary (forward
    activations; the backward gradient is the same size), and ``topology``
    supplies the link model pricing that P2P transfer.  A ``topology`` of
    ``None`` (or zero ``activation_bytes``) models free inter-stage links --
    what the synthetic test workloads use to isolate schedule behaviour.
    """

    name: str
    microbatch: EndToEndWorkload
    stage_layers: tuple[int, ...]
    microbatches: int
    activation_bytes: float = 0.0
    topology: Topology | None = None
    total_tokens: int | None = None
    microbatch_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.microbatches < 1:
            raise ValueError("microbatches must be >= 1")
        if not self.stage_layers or any(count < 1 for count in self.stage_layers):
            raise ValueError("every stage needs at least one layer")
        if sum(self.stage_layers) != self.microbatch.layers:
            raise ValueError(
                f"stage partition {self.stage_layers} does not cover the "
                f"microbatch stream's {self.microbatch.layers} layers"
            )
        if self.activation_bytes < 0:
            raise ValueError("activation_bytes must be non-negative")

    @property
    def num_stages(self) -> int:
        return len(self.stage_layers)


def check_pipeline_inputs(name: str, tokens: int | None) -> None:
    """Reject an unknown registry workload or a non-positive token count."""
    if name not in workload_builders():
        raise KeyError(f"unknown workload {name!r}; known: {sorted(workload_builders())}")
    if tokens is not None and tokens < 1:
        raise ValueError("tokens must be >= 1")


def build_pipeline_workload(
    name: str,
    stages: int,
    microbatches: int,
    tokens: int | None = None,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int | None = None,
    partition: Sequence[int] | None = None,
) -> PipelineWorkload:
    """Instantiate a registry workload as a pipeline-parallel workload.

    The paper input size (or ``tokens``) is split evenly into ``microbatches``
    -- the microbatch token count is what sizes every GEMM, so the plan store
    tunes the *microbatch* shapes -- and the layer stack is partitioned into
    ``stages`` contiguous groups.  An explicit ``partition`` (``repro pp
    --partition`` or a replayed plan file) overrides the balanced split; it
    must have ``stages`` entries summing to the layer count.  All other knobs
    match :func:`repro.workloads.e2e.build_workload`.
    """
    check_pipeline_inputs(name, tokens)
    if microbatches < 1:
        raise ValueError("microbatches must be >= 1")
    total_tokens = tokens
    if total_tokens is None:
        # Each builder's first positional default is its paper input size;
        # recover it from the registry signature instead of duplicating it.
        import inspect

        builder = workload_builders()[name]
        total_tokens = next(iter(inspect.signature(builder).parameters.values())).default
    if total_tokens % microbatches != 0:
        raise ValueError(
            f"{total_tokens} input tokens do not split evenly into "
            f"{microbatches} microbatches"
        )
    microbatch_tokens = total_tokens // microbatches
    microbatch = build_workload(
        name,
        tokens=microbatch_tokens,
        device=device,
        topology=topology,
        layers=layers,
    )
    if partition is not None:
        stage_layers = tuple(int(count) for count in partition)
        if len(stage_layers) != stages:
            raise ValueError(
                f"explicit partition {stage_layers} has {len(stage_layers)} "
                f"stages, expected {stages}"
            )
    else:
        stage_layers = partition_layers(microbatch.layers, stages)
    # The topology the overlap targets run on also prices the stage-boundary
    # P2P transfer (the PP links of one server / one cluster).
    op_topology = next(
        (op.problem.topology for op in microbatch.operators if op.problem is not None), None
    )
    hidden = _HIDDEN_SIZES[name]
    return PipelineWorkload(
        name=microbatch.name,
        microbatch=microbatch,
        stage_layers=stage_layers,
        microbatches=microbatches,
        activation_bytes=float(microbatch_tokens * hidden * DTYPE_BYTES),
        topology=op_topology,
        total_tokens=total_tokens,
        microbatch_tokens=microbatch_tokens,
    )
