"""Baseline overlap methods the paper compares against (Table 1, Fig. 10/11).

Each baseline is a latency model over the same substrate (GEMM kernel model +
collective latency model) so that comparisons isolate the *method*, not the
modeling assumptions:

* **Non-overlap** -- sequential cuBLAS GEMM followed by one NCCL call.
* **Vanilla decomposition** -- the GEMM is split along ``M`` into chunks; each
  chunk's GEMM and collective form a software pipeline (cuBLAS + NCCL calls).
  Fragmentation hurts twice: small GEMMs waste SMs (wave quantisation) and
  small messages waste bandwidth (Fig. 8).
* **Async-TP** -- PyTorch's decomposition over P2P copy engines; needs NVLink.
* **FLUX** -- fusion-based tile-wise overlap; interferes with the GEMM but
  avoids a separate epilogue round-trip, which wins for small ``K``.
* **cuBLASMp** -- NVIDIA's fused distributed GEMM, modeled like FLUX with
  slightly more conservative constants.

The class attributes ``tile_wise`` / ``interference_free`` / ``comm_agnostic``
encode Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.gpu.gemm import GemmShape


@dataclass(frozen=True)
class BaselineResult:
    """Latency of one baseline on one problem."""

    method: str
    latency: float
    supported: bool = True


class BaselineMethod:
    """Interface shared by all baseline latency models."""

    name: str = "baseline"
    #: Table 1 feature flags.
    tile_wise: bool = False
    interference_free: bool = False
    comm_agnostic: bool = False
    requires_p2p: bool = False

    def __init__(self, settings: OverlapSettings = DEFAULT_SETTINGS) -> None:
        self.settings = settings

    def supports(self, problem: OverlapProblem) -> bool:
        """Whether the method can run on the problem's topology."""
        if self.requires_p2p and not problem.topology.supports_p2p:
            return False
        return True

    def latency(self, problem: OverlapProblem) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def evaluate(self, problem: OverlapProblem) -> BaselineResult:
        if not self.supports(problem):
            return BaselineResult(method=self.name, latency=float("inf"), supported=False)
        return BaselineResult(method=self.name, latency=self.latency(problem))


class NonOverlapBaseline(BaselineMethod):
    """Sequential execution: the normalisation reference of every figure."""

    name = "non-overlap"
    interference_free = True
    comm_agnostic = True

    def latency(self, problem: OverlapProblem) -> float:
        gemm = problem.gemm_model().duration(include_launch=True) * problem.imbalance
        comm_model = problem.collective_model()
        comm = comm_model.latency(problem.output_bytes() * problem.imbalance)
        return gemm + comm + self.settings.comm_launch_s


class VanillaDecompositionBaseline(BaselineMethod):
    """Decomposition over cuBLAS + NCCL calls along the ``M`` dimension."""

    name = "vanilla-decomposition"
    comm_agnostic = True

    #: Slow-down of each fragmented GEMM chunk relative to the monolithic
    #: kernel (lost tail-wave utilisation and L2 reuse) -- decomposition is
    #: not interference-free (Table 1).
    fragmentation_penalty = 0.05

    def __init__(self, num_chunks: int = 4, settings: OverlapSettings = DEFAULT_SETTINGS) -> None:
        super().__init__(settings)
        if num_chunks < 1:
            raise ValueError("num_chunks must be >= 1")
        self.num_chunks = num_chunks

    def _chunk_shapes(self, problem: OverlapProblem) -> list[GemmShape]:
        shape = problem.shape
        chunks = min(self.num_chunks, shape.m)
        base = shape.m // chunks
        remainder = shape.m - base * chunks
        rows = [base + (1 if i < remainder else 0) for i in range(chunks)]
        return [GemmShape(m=r, n=shape.n, k=shape.k) for r in rows if r > 0]

    def latency(self, problem: OverlapProblem) -> float:
        comm_model = problem.collective_model()
        shapes = self._chunk_shapes(problem)
        # The chunked GEMMs run concurrently with the NCCL kernels of earlier
        # chunks, so they also pay the SM contention.
        compute_sms = problem.compute_sm_count()
        compute_end = 0.0
        comm_end = 0.0
        for index, chunk in enumerate(shapes):
            chunk_problem = problem.with_shape(chunk)
            sm_budget = None if index == 0 else compute_sms
            gemm = chunk_problem.gemm_model().duration(sm_budget, include_launch=True)
            gemm *= problem.imbalance * (1.0 + self.fragmentation_penalty)
            compute_end += gemm
            payload = chunk.output_bytes(problem.dtype_bytes) * problem.imbalance
            comm = comm_model.latency(payload) + self.settings.comm_launch_s
            comm_end = max(comm_end, compute_end) + comm
        return comm_end


class AsyncTPBaseline(VanillaDecompositionBaseline):
    """PyTorch Async-TP: decomposition over peer-to-peer copies (NVLink only).

    The copy-engine transfers skip the NCCL launch overhead and achieve close
    to peak link bandwidth, but the decomposition still fragments the GEMM.
    """

    name = "async-tp"
    comm_agnostic = False
    requires_p2p = True

    def __init__(self, settings: OverlapSettings = DEFAULT_SETTINGS) -> None:
        super().__init__(num_chunks=4, settings=settings)

    def latency(self, problem: OverlapProblem) -> float:
        comm_model = problem.collective_model()
        shapes = self._chunk_shapes(problem)
        peak = problem.topology.peak_bus_bandwidth_bytes
        compute_end = 0.0
        comm_end = 0.0
        for chunk in shapes:
            chunk_problem = problem.with_shape(chunk)
            gemm = chunk_problem.gemm_model().duration(include_launch=True)
            gemm *= problem.imbalance * (1.0 + self.fragmentation_penalty)
            compute_end += gemm
            payload = chunk.output_bytes(problem.dtype_bytes) * problem.imbalance
            wire = comm_model.wire_bytes(payload)
            # P2P copies: near-peak bandwidth, small fixed cost per chunk
            # (symmetric-memory barrier + copy launch).
            comm = wire / (peak * 0.92) + 15e-6
            comm_end = max(comm_end, compute_end) + comm
        return comm_end


class FluxFusionBaseline(BaselineMethod):
    """FLUX-style kernel fusion of the GEMM and the collective."""

    name = "flux"
    tile_wise = True
    requires_p2p = True

    #: Main-loop slow-down caused by communication instructions in the kernel.
    interference = 0.12
    #: Fraction of peak link bandwidth the hand-written transfers reach.
    transfer_efficiency = 0.78
    #: Fraction of the output write-back traffic the fusion saves (the result
    #: is pushed to the remote GPU instead of being re-read by NCCL).
    epilogue_saving = 0.6
    #: Fraction of the shorter phase left exposed by the fused schedule.
    exposed_fraction = 0.12

    def latency(self, problem: OverlapProblem) -> float:
        gemm = problem.gemm_model()
        comm_model = problem.collective_model()
        compute = gemm.compute_time() * (1.0 + self.interference)
        memory = gemm.memory_time()
        saved = (
            problem.output_bytes()
            / problem.device.memory_bytes_per_second
            * self.epilogue_saving
        )
        memory = max(0.0, memory - saved)
        gemm_part = max(compute, memory) + problem.device.kernel_launch_seconds
        gemm_part *= problem.imbalance
        wire = comm_model.wire_bytes(problem.output_bytes() * problem.imbalance)
        comm_part = wire / (problem.topology.peak_bus_bandwidth_bytes * self.transfer_efficiency)
        comm_part += problem.topology.base_latency_s
        # Tile-wise fusion overlaps almost everything; the longer phase
        # dominates and part of the shorter phase stays exposed (warm-up,
        # drain and per-tile synchronisation).
        exposed = min(gemm_part, comm_part) * self.exposed_fraction
        return max(gemm_part, comm_part) + exposed


class CublasMpBaseline(FluxFusionBaseline):
    """cuBLASMp-style fused distributed GEMM (slightly more conservative)."""

    name = "cublasmp"
    interference = 0.15
    transfer_efficiency = 0.72
    epilogue_saving = 0.4
    exposed_fraction = 0.15


def default_baselines(settings: OverlapSettings = DEFAULT_SETTINGS) -> list[BaselineMethod]:
    """The baseline set used in the paper's operator-level comparison."""
    return [
        NonOverlapBaseline(settings),
        VanillaDecompositionBaseline(settings=settings),
        AsyncTPBaseline(settings=settings),
        FluxFusionBaseline(settings),
        CublasMpBaseline(settings),
    ]
