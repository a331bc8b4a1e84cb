"""Named scenario matrices drawn from the workload models.

Each preset turns one workload family (dense LLM inference/training, MoE
expert parallelism, text-to-video DiT, online serving, the Table 3 operator
suites) into a :class:`~repro.sweep.matrix.ScenarioMatrix`.  The
model-backed presets build the registry workload's layer
(:func:`repro.workloads.e2e.build_workload`) and grid its overlap targets, so
a sweep covers the shapes that actually occur in those workloads rather than
an arbitrary grid.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import a800_nvlink
from repro.gpu.gemm import GemmShape
from repro.sweep.matrix import Platform, ScenarioMatrix
from repro.workloads.moe import MIXTRAL_8X7B
from repro.workloads.shapes import operator_suite

A800_NODE = Platform(device="a800", topology="a800-nvlink", gpus=4)
RTX4090_NODE = Platform(device="rtx4090", topology="rtx4090-pcie", gpus=4)


def _layer_matrix(
    name: str,
    label: str,
    workload: str,
    tokens: Iterable[int],
    collective: str,
    gpus: int,
) -> ScenarioMatrix:
    """Overlap-target shapes of one registry workload layer across input sizes.

    Builds ``workload`` (one layer) on ``gpus`` NVLink-connected A800s at
    every token count -- the tensor-parallel degree follows the GPU count --
    and grids the distinct GEMM shapes whose following collective is
    ``collective``, under the scenario workload ``label``.
    """
    from repro.workloads.e2e import build_workload

    kind = CollectiveKind.from_name(collective)
    shapes: list[GemmShape] = []
    imbalances: set[float] = set()
    for t in tokens:
        built = build_workload(workload, tokens=t, topology=a800_nvlink(gpus), layers=1)
        for op in built.operators:
            if op.problem is None or op.problem.collective is not kind:
                continue
            if op.problem.shape not in shapes:
                shapes.append(op.problem.shape)
            imbalances.add(round(op.problem.imbalance, 4))
    return ScenarioMatrix.build(
        name=name,
        workload=label,
        shapes=shapes,
        platforms=[Platform(device="a800", topology="a800-nvlink", gpus=gpus)],
        collectives=[collective],
        imbalances=sorted(imbalances),
    )


def moe_alltoall_matrix() -> ScenarioMatrix:
    """Expert down-projection + All-to-All of Mixtral-8x7B (EP=4) under imbalanced routing."""
    shapes = [
        GemmShape(
            m=t * MIXTRAL_8X7B.top_k // A800_NODE.gpus,
            n=MIXTRAL_8X7B.hidden_size,
            k=MIXTRAL_8X7B.expert_intermediate_size,
        )
        for t in (4096, 8192)
    ]
    return ScenarioMatrix.build(
        name="moe-alltoall-mixtral-8x7b",
        workload="moe-alltoall",
        shapes=shapes,
        platforms=[A800_NODE],
        collectives=["alltoall"],
        imbalances=(1.0, 1.15, 1.3),
    )


def table3_matrix(collective: str, device_family: str) -> ScenarioMatrix:
    """Reduced grid over the Table 3 operator-level range for one pair."""
    kind = CollectiveKind.from_name(collective)
    suite = operator_suite(kind, device_family, mn_points=3, k_points=2)
    platform = RTX4090_NODE if device_family == "rtx4090" else A800_NODE
    return ScenarioMatrix.build(
        name=suite.name,
        workload=f"table3-{device_family}",
        shapes=list(suite),
        platforms=[platform],
        collectives=[collective],
    )


def serving_matrix(rate_rps: float) -> ScenarioMatrix:
    """GEMM+AllReduce pairs that continuous batching produces at one arrival rate.

    A dry scheduler run over 48 seeded Poisson ``chat`` requests yields every
    iteration's batched token count; the distinct power-of-two buckets are
    the token counts of the Llama3-70B TP=4 inference layer, so a sweep over
    ``serving-rate*`` presets grids the tuner over exactly the shapes online
    serving would request at those arrival rates.
    """
    from repro.serve import (
        PoissonArrivals,
        bucket_tokens,
        distribution_by_name,
        profile_iteration_tokens,
    )

    requests = PoissonArrivals(
        rate_rps=rate_rps,
        distribution=distribution_by_name("chat"),
        seed=0,
        num_requests=48,
    ).generate()
    tokens = profile_iteration_tokens(requests, max_batch_tokens=4096, max_batch_size=32)
    name = f"serving-rate{rate_rps:g}"
    return _layer_matrix(
        name, name, "llama3-inference", sorted({bucket_tokens(t) for t in tokens}), "allreduce", 4
    )


def smoke_matrix() -> ScenarioMatrix:
    """Small-but-wide matrix for CI and tests: 12 cheap scenarios.

    Shapes are tiny so one scenario costs milliseconds, yet the matrix still
    spans two platforms and two collectives (the axes CI wants covered).
    """
    return ScenarioMatrix.build(
        name="smoke",
        workload="smoke",
        shapes=[(512, 1024, 1024), (1024, 2048, 1024), (2048, 2048, 2048)],
        platforms=[RTX4090_NODE, A800_NODE],
        collectives=["allreduce", "reducescatter"],
    )


_PRESETS: dict[str, Callable[[], ScenarioMatrix]] = {
    "smoke": smoke_matrix,
    "llm-inference": lambda: _layer_matrix(
        "llm-inference-llama3-70b", "llm-inference", "llama3-inference", (2048, 4096),
        "allreduce", 4),
    "llm-training": lambda: _layer_matrix(
        "llm-training-llama3-70b", "llm-training", "llama3-training", (4096,),
        "reducescatter", 4),
    "moe-alltoall": moe_alltoall_matrix,
    # The paper's largest GEMM+AR share: long-sequence DiT blocks.
    "t2v": lambda: _layer_matrix(
        "t2v-step-video-t2v", "t2v", "step-video", (20480, 30720), "allreduce", 4),
    "table3-ar-rtx4090": lambda: table3_matrix("allreduce", "rtx4090"),
    "table3-rs-a800": lambda: table3_matrix("reducescatter", "a800"),
    "table3-a2a-a800": lambda: table3_matrix("alltoall", "a800"),
    # Serving traffic at increasing arrival rates: sweep several presets
    # together (``--preset serving-rate8 --preset serving-rate32 ...``) to
    # grid the tuner over the shapes online serving produces under load.
    "serving-rate8": lambda: serving_matrix(8.0),
    "serving-rate32": lambda: serving_matrix(32.0),
    "serving-rate128": lambda: serving_matrix(128.0),
    # End-to-end workload scans: the exact overlap-target shapes `repro e2e`
    # estimates, gridded over chunk sizes (``-chunks``) or tensor-parallel
    # degrees (``-tp*``); sweep several presets together to scan both.
    "e2e-llama3-chunks": lambda: _layer_matrix(
        "e2e-llama3-chunks", "e2e-llama3-inference", "llama3-inference", (4096, 8192, 16384),
        "allreduce", 8),
    "e2e-llama3-tp2": lambda: _layer_matrix(
        "e2e-llama3-tp2", "e2e-llama3-inference", "llama3-inference", (16384,), "allreduce", 2),
    "e2e-llama3-tp4": lambda: _layer_matrix(
        "e2e-llama3-tp4", "e2e-llama3-inference", "llama3-inference", (16384,), "allreduce", 4),
    "e2e-llama3-tp8": lambda: _layer_matrix(
        "e2e-llama3-tp8", "e2e-llama3-inference", "llama3-inference", (16384,), "allreduce", 8),
    # Mixtral runs EP=4 x TP=2 on its 8 GPUs.
    "e2e-mixtral-a2a": lambda: _layer_matrix(
        "e2e-mixtral-a2a", "e2e-mixtral-training", "mixtral-training", (16384, 32768),
        "alltoall", 8),
    "e2e-step-video-chunks": lambda: _layer_matrix(
        "e2e-step-video-chunks", "e2e-step-video", "step-video", (16896, 33792), "allreduce", 4),
    # Pipeline-parallel scans: `repro pp` splits the paper input into
    # microbatches, so the microbatch count is the axis that changes the
    # tuned GEMM shapes (stage count and schedule choice re-price the same
    # shapes and share plans).  Each preset grids the overlap targets at the
    # microbatch token counts of M in {2, 4, 8} (llama3 trains on 16384
    # tokens, mixtral on 32768), warming the shape cache for pp runs across
    # any stage count x microbatch count x schedule combination.
    "pp-llama3-microbatches": lambda: _layer_matrix(
        "pp-llama3-microbatches", "e2e-llama3-training", "llama3-training", (2048, 4096, 8192),
        "reducescatter", 8),
    "pp-mixtral-microbatches": lambda: _layer_matrix(
        "pp-mixtral-microbatches", "e2e-mixtral-training", "mixtral-training",
        (4096, 8192, 16384), "alltoall", 8),
    "pp-step-video-microbatches": lambda: _layer_matrix(
        "pp-step-video-microbatches", "e2e-step-video", "step-video", (4224, 8448, 16896),
        "allreduce", 4),
}


def sweep_presets() -> dict[str, Callable[[], ScenarioMatrix]]:
    """The named preset registry (name -> matrix factory)."""
    return dict(_PRESETS)


def matrix_from_preset(name: str) -> ScenarioMatrix:
    """Instantiate a named preset matrix."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown sweep preset {name!r}; known: {sorted(_PRESETS)}") from None
    return factory()
