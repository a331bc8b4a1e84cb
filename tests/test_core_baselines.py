"""Tests for the baseline overlap methods (repro.core.baselines, Table 1)."""

import pytest

from repro.comm.primitives import CollectiveKind
from repro.core.baselines import (
    AsyncTPBaseline,
    CublasMpBaseline,
    FluxFusionBaseline,
    NonOverlapBaseline,
    VanillaDecompositionBaseline,
    default_baselines,
)
from repro.core.config import OverlapProblem
from repro.gpu.device import A800
from repro.comm.topology import a800_nvlink
from repro.gpu.gemm import GemmShape


@pytest.fixture
def problem_a800():
    return OverlapProblem(
        shape=GemmShape(8192, 8192, 4096),
        device=A800,
        topology=a800_nvlink(4),
        collective=CollectiveKind.REDUCE_SCATTER,
    )


class TestFeatureMatrix:
    def test_class_flags_match_families(self):
        decomposition, fusion = VanillaDecompositionBaseline, FluxFusionBaseline
        assert decomposition.comm_agnostic
        assert not decomposition.tile_wise and not decomposition.interference_free
        assert fusion.tile_wise
        assert not fusion.comm_agnostic and not fusion.interference_free
        assert NonOverlapBaseline.interference_free


class TestSupport:
    def test_p2p_requirement(self, paper_problem_4090, problem_a800):
        # FLUX and Async-TP need peer-to-peer access, absent on the 4090 box.
        for method in (FluxFusionBaseline(), AsyncTPBaseline(), CublasMpBaseline()):
            assert not method.supports(paper_problem_4090)
            assert method.supports(problem_a800)
        assert VanillaDecompositionBaseline().supports(paper_problem_4090)

    def test_unsupported_evaluation_reports_inf(self, paper_problem_4090):
        result = FluxFusionBaseline().evaluate(paper_problem_4090)
        assert not result.supported
        assert result.latency == float("inf")


class TestLatencies:
    def test_non_overlap_is_gemm_plus_comm(self, problem_a800):
        latency = NonOverlapBaseline().latency(problem_a800)
        gemm = problem_a800.gemm_model().duration()
        comm = problem_a800.collective_model().latency(problem_a800.output_bytes())
        assert latency == pytest.approx(gemm + comm, rel=0.01)

    def test_decomposition_beats_non_overlap_on_comm_heavy_case(self, paper_problem_4090):
        # On the PCIe box communication dominates, so even the fragmented
        # pipeline wins; on compute-dominated cases it may not (Fig. 10 min
        # whiskers dip below 1).
        non_overlap = NonOverlapBaseline().latency(paper_problem_4090)
        decomposed = VanillaDecompositionBaseline(num_chunks=4).latency(paper_problem_4090)
        assert decomposed < non_overlap

    def test_decomposition_never_catastrophic(self, problem_a800):
        non_overlap = NonOverlapBaseline().latency(problem_a800)
        decomposed = VanillaDecompositionBaseline(num_chunks=4).latency(problem_a800)
        assert decomposed < non_overlap * 1.05

    def test_excessive_decomposition_backfires(self, paper_problem_4090):
        few = VanillaDecompositionBaseline(num_chunks=4).latency(paper_problem_4090)
        many = VanillaDecompositionBaseline(num_chunks=64).latency(paper_problem_4090)
        assert many > few

    def test_chunk_shapes_cover_m(self, problem_a800):
        baseline = VanillaDecompositionBaseline(num_chunks=3)
        shapes = baseline._chunk_shapes(problem_a800)
        assert sum(s.m for s in shapes) == problem_a800.shape.m
        assert all(s.n == problem_a800.shape.n and s.k == problem_a800.shape.k for s in shapes)

    def test_async_tp_beats_vanilla_on_nvlink(self, problem_a800):
        vanilla = VanillaDecompositionBaseline(num_chunks=4).latency(problem_a800)
        async_tp = AsyncTPBaseline().latency(problem_a800)
        assert async_tp < vanilla * 1.05

    def test_fusion_wins_for_small_k(self):
        # Fig. 11: FLUX can win when K=2048 (memory-bound epilogue saving).
        problem = OverlapProblem(
            shape=GemmShape(16384, 8192, 2048),
            device=A800,
            topology=a800_nvlink(4),
            collective=CollectiveKind.REDUCE_SCATTER,
        )
        flux = FluxFusionBaseline().latency(problem)
        vanilla = VanillaDecompositionBaseline().latency(problem)
        assert flux < vanilla

    def test_cublasmp_slower_than_flux(self, problem_a800):
        assert CublasMpBaseline().latency(problem_a800) > FluxFusionBaseline().latency(problem_a800)

    def test_all_overlap_baselines_beat_non_overlap_here(self, problem_a800):
        non_overlap = NonOverlapBaseline().latency(problem_a800)
        for method in default_baselines():
            result = method.evaluate(problem_a800)
            if result.supported and method.name != "non-overlap":
                assert result.latency < non_overlap * 1.02, method.name

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            VanillaDecompositionBaseline(num_chunks=0)
