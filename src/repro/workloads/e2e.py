"""End-to-end workloads of the paper's Table 4.

Each builder returns an :class:`~repro.workloads.operators.EndToEndWorkload`
whose operator stream describes one transformer layer of the application; the
``layers`` field repeats it (the paper truncates the training models to 8 / 4
layers so that they fit on one node, which is mirrored here).  A workload is
shapes only: :class:`~repro.e2e.estimator.EndToEndEstimator` prices it, under
the estimator's own :class:`~repro.core.config.OverlapSettings`.

| Application      | Model            | Parallelism   | Input size            |
|------------------|------------------|---------------|-----------------------|
| LLM inference    | Llama3-70B       | TP=8          | chunk_size = 16384    |
| LLM training     | Mixtral-8x7B     | EP=4, TP=2    | input tokens = 32768  |
| LLM training     | Llama3-70B       | TP=8          | input tokens = 16384  |
| T2V generation   | Step-Video-T2V   | TP=4          | input tokens = 33792  |
"""

from __future__ import annotations

from repro.comm.topology import Topology, a800_nvlink
from repro.gpu.device import A800, GPUSpec
from repro.workloads.llm import LLAMA2_7B, LLAMA3_70B, llm_inference_layer, llm_training_layer
from repro.workloads.moe import MIXTRAL_8X7B, moe_training_layer
from repro.workloads.operators import EndToEndWorkload, OperatorInstance
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.t2v import STEP_VIDEO_T2V, t2v_inference_layer

__all__ = [
    "EndToEndWorkload",
    "OperatorInstance",
    "llama3_inference_workload",
    "llama3_training_workload",
    "llama2_training_workload",
    "mixtral_training_workload",
    "step_video_workload",
    "paper_workloads",
    "workload_builders",
    "build_workload",
]


def _tp_parallelism(topology: Topology | None, default_tp: int, pp: int = 1):
    """TP degree consistent with the collective span.

    With no explicit topology, the paper's degree is used and the topology is
    built to match.  An explicit topology (e.g. a multi-node placement from
    ``--nodes``) instead *re-derives* TP from its GPU count, so the sharded
    GEMM shapes and the collective group size always describe one realizable
    configuration.
    """
    if topology is None:
        parallelism = ParallelismConfig(tp=default_tp, pp=pp)
        return parallelism, a800_nvlink(default_tp)
    return ParallelismConfig(tp=topology.n_gpus, pp=pp), topology


def llama3_inference_workload(
    chunk_size: int = 16384,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int = 8,
) -> EndToEndWorkload:
    """Llama3-70B prefill under TP=8 (vLLM-style chunked prefill)."""
    parallelism, topology = _tp_parallelism(topology, default_tp=8)
    ops = llm_inference_layer(LLAMA3_70B, chunk_size, parallelism, device, topology)
    return EndToEndWorkload(
        name=f"Llama3-70B inference (TP={parallelism.tp})", operators=ops, layers=layers
    )


def llama3_training_workload(
    input_tokens: int = 16384,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int = 8,
) -> EndToEndWorkload:
    """Llama3-70B training (8 layers) under TP=8 with sequence parallelism."""
    parallelism, topology = _tp_parallelism(topology, default_tp=8)
    ops = llm_training_layer(LLAMA3_70B, input_tokens, parallelism, device, topology)
    return EndToEndWorkload(
        name=f"Llama3-70B training (TP={parallelism.tp})", operators=ops, layers=layers
    )


def llama2_training_workload(
    input_tokens: int = 8192,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int = 8,
) -> EndToEndWorkload:
    """Llama2-7B training under TP=4 (the Fig. 4 profiling workload).

    Pipeline parallelism (PP=2 in the paper) splits layers across stages but
    does not change the per-layer "GEMM + collective" pattern, so only the
    tensor-parallel degree matters here.
    """
    parallelism, topology = _tp_parallelism(topology, default_tp=4, pp=2)
    ops = llm_training_layer(LLAMA2_7B, input_tokens, parallelism, device, topology)
    return EndToEndWorkload(
        name=f"Llama2-7B training (TP={parallelism.tp}, PP={parallelism.pp})", operators=ops, layers=layers
    )


def mixtral_training_workload(
    input_tokens: int = 32768,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int = 4,
) -> EndToEndWorkload:
    """Mixtral-8x7B training (4 layers) under EP=4, TP=2.

    An explicit topology keeps EP=4 and re-derives TP from the GPU count
    (``n_gpus / 4``), so the expert sharding and the collective span stay one
    realizable configuration.
    """
    if topology is None:
        parallelism = ParallelismConfig(tp=2, ep=4)
        topology = a800_nvlink(parallelism.world_size)
    else:
        if topology.n_gpus % 4 != 0:
            raise ValueError(
                f"mixtral-training needs a GPU count divisible by EP=4, "
                f"got {topology.n_gpus} ({topology.name})"
            )
        parallelism = ParallelismConfig(tp=max(1, topology.n_gpus // 4), ep=4)
    ops = moe_training_layer(MIXTRAL_8X7B, input_tokens, parallelism, device, topology)
    return EndToEndWorkload(
        name=f"Mixtral-8x7B training (EP={parallelism.ep}, TP={parallelism.tp})", operators=ops, layers=layers
    )


def step_video_workload(
    input_tokens: int = 33792,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int = 8,
) -> EndToEndWorkload:
    """Step-Video-T2V DiT inference under TP=4."""
    parallelism, topology = _tp_parallelism(topology, default_tp=4)
    ops = t2v_inference_layer(STEP_VIDEO_T2V, input_tokens, parallelism, device, topology)
    return EndToEndWorkload(
        name=f"Step-Video-T2V (TP={parallelism.tp})", operators=ops, layers=layers
    )


def paper_workloads() -> list[EndToEndWorkload]:
    """All four Table 4 applications with their default parameters."""
    return [
        llama3_inference_workload(),
        mixtral_training_workload(),
        llama3_training_workload(),
        step_video_workload(),
    ]


#: Every paper workload by slug (the Table 4 four plus the Fig. 4 profiling
#: model).  Each builder takes the input token count as its first positional
#: argument and accepts ``device`` / ``topology`` / ``layers`` keywords, so
#: the registry is what the CLI, the e2e sweep presets and the benchmarks
#: drive.
_WORKLOAD_BUILDERS = {
    "llama3-inference": llama3_inference_workload,
    "llama3-training": llama3_training_workload,
    "llama2-training": llama2_training_workload,
    "mixtral-training": mixtral_training_workload,
    "step-video": step_video_workload,
}


def workload_builders() -> dict:
    """Slug -> builder for all five paper workloads (registry copy)."""
    return dict(_WORKLOAD_BUILDERS)


def build_workload(
    name: str,
    tokens: int | None = None,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int | None = None,
) -> EndToEndWorkload:
    """Instantiate a registry workload, overriding only the passed knobs.

    An explicit ``topology`` replaces the paper's single-node placement *and*
    re-derives the tensor-parallel degree from its GPU count (EP stays fixed
    for the MoE workload), keeping sharded shapes and collective span
    consistent.
    """
    try:
        builder = _WORKLOAD_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_WORKLOAD_BUILDERS)}"
        ) from None
    if tokens is not None and tokens < 1:
        raise ValueError("tokens must be >= 1")
    kwargs: dict = {"device": device, "topology": topology}
    if layers is not None:
        kwargs["layers"] = layers
    if tokens is not None:
        return builder(tokens, **kwargs)
    return builder(**kwargs)
