"""Cross-module integration tests mirroring the artifact experiments.

E1 -- correctness and speedup of the full operator across primitives and GPU
      counts; E2 -- predictive-search quality; E3 -- reordering overhead.
"""

import numpy as np
import pytest

from repro.comm.primitives import CollectiveKind
from repro.comm.topology import Topology, InterconnectKind, a800_nvlink, rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.overlap import FlashOverlapOperator
from repro.core.predictor import LatencyPredictor, OfflineProfile
from repro.core.reordering import build_reorder_plan, run_allreduce_pipeline
from repro.core.tuner import PredictiveTuner, search_quality
from repro.core.wave_grouping import WavePartition
from repro.gpu.device import A800, RTX_4090, GPUSpec
from repro.gpu.epilogue import ReorderOverheadModel
from repro.gpu.gemm import GemmShape, GemmTileConfig


SETTINGS = OverlapSettings(executor_jitter=0.0, bandwidth_profile_noise=0.0)


def small_numeric_problem(collective: CollectiveKind, n_gpus: int) -> OverlapProblem:
    """A functional-path problem small enough for exact NumPy execution."""
    device = GPUSpec(name="tiny", sm_count=8, fp16_tflops=4.0, hbm_bandwidth_gbps=200.0)
    topology = Topology(
        name="tiny",
        n_gpus=n_gpus,
        kind=InterconnectKind.PCIE,
        peak_bus_bandwidth_gbps=10.0,
        base_latency_us=20.0,
        half_saturation_mb=0.5,
        comm_sm_count=2,
        supports_p2p=False,
    )
    return OverlapProblem(
        shape=GemmShape(m=64, n=48, k=32),
        device=device,
        topology=topology,
        collective=collective,
        gemm_config=GemmTileConfig(tile_m=8, tile_n=8, tile_k=8, swizzle_size=3),
    )


class TestExperimentE1Correctness:
    """Artifact E1(1): the overlapped result matches the plain collective."""

    @pytest.mark.parametrize("collective", [
        CollectiveKind.ALL_REDUCE, CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALL_TO_ALL,
    ])
    @pytest.mark.parametrize("n_gpus", [2, 4, 8])
    def test_all_primitives_and_gpu_counts(self, collective, n_gpus):
        problem = small_numeric_problem(collective, n_gpus)
        operator = FlashOverlapOperator(problem, SETTINGS)
        result = operator.run_numeric()
        assert result.allclose(), (
            f"{collective.short_name} on {n_gpus} GPUs: max error {result.max_abs_error()}"
        )

    def test_correctness_independent_of_partition(self):
        problem = small_numeric_problem(CollectiveKind.ALL_REDUCE, 4)
        operator = FlashOverlapOperator(problem, SETTINGS)
        waves = operator.executor.num_waves()
        rng = np.random.default_rng(0)
        matrices = [rng.standard_normal((problem.shape.m, problem.shape.n)) for _ in range(4)]
        order = operator.executor.gemm_contended.execution_order()
        for partition in (
            WavePartition.per_wave(waves),
            WavePartition.single_group(waves),
            WavePartition.equal_groups(waves, 3),
        ):
            assignment = operator.executor.assignment(partition)
            reorder_plan = build_reorder_plan(
                problem.collective,
                operator.executor.gemm_contended.layout,
                [list(tiles) for tiles in assignment.group_tiles],
                problem.n_gpus,
            )
            result = run_allreduce_pipeline(
                matrices, reorder_plan, assignment=assignment, execution_order=order
            )
            assert result.allclose()


class TestExperimentE1Speedup:
    """Artifact E1(2): overlap speedups in the paper's ranges."""

    @pytest.mark.parametrize("collective,topo_builder,device,shape,lo,hi", [
        (CollectiveKind.ALL_REDUCE, rtx4090_pcie, RTX_4090, GemmShape(2048, 8192, 8192), 1.05, 1.70),
        (CollectiveKind.REDUCE_SCATTER, rtx4090_pcie, RTX_4090, GemmShape(4096, 8192, 16384), 1.05, 1.70),
        (CollectiveKind.ALL_TO_ALL, rtx4090_pcie, RTX_4090, GemmShape(2048, 8192, 16384), 1.05, 1.70),
        (CollectiveKind.ALL_REDUCE, a800_nvlink, A800, GemmShape(8192, 8192, 4096), 1.05, 1.60),
        (CollectiveKind.REDUCE_SCATTER, a800_nvlink, A800, GemmShape(16384, 8192, 2048), 1.05, 1.60),
    ])
    def test_operator_level_speedup(self, collective, topo_builder, device, shape, lo, hi):
        problem = OverlapProblem(
            shape=shape, device=device, topology=topo_builder(4), collective=collective
        )
        report = FlashOverlapOperator(problem, SETTINGS).report()
        assert lo < report.speedup < hi
        assert report.ratio_of_theoretical > 0.65

    @pytest.mark.parametrize("n_gpus", [2, 4, 8])
    def test_speedup_holds_across_gpu_counts(self, n_gpus):
        problem = OverlapProblem(
            shape=GemmShape(2048, 8192, 8192), device=RTX_4090,
            topology=rtx4090_pcie(n_gpus), collective=CollectiveKind.ALL_REDUCE,
        )
        assert FlashOverlapOperator(problem, SETTINGS).speedup() > 1.02

    def test_never_materially_slower_than_non_overlap(self):
        # The compute-dominated corner: overlap provides little, the fallback
        # must prevent deterioration.
        problem = OverlapProblem(
            shape=GemmShape(4096, 4096, 16384), device=A800,
            topology=a800_nvlink(8), collective=CollectiveKind.REDUCE_SCATTER,
        )
        assert FlashOverlapOperator(problem, SETTINGS).speedup() > 0.97


class TestExperimentE2Search:
    """Artifact E2: predictor error and predictive-search quality."""

    def _problems(self):
        for shape in (GemmShape(2048, 8192, 8192), GemmShape(4096, 8192, 7168)):
            yield OverlapProblem(
                shape=shape, device=RTX_4090, topology=rtx4090_pcie(4),
                collective=CollectiveKind.ALL_REDUCE,
            )
        yield OverlapProblem(
            shape=GemmShape(16384, 8192, 2048), device=A800, topology=a800_nvlink(4),
            collective=CollectiveKind.REDUCE_SCATTER,
        )

    def test_mean_prediction_error_below_10_percent(self):
        errors = []
        for problem in self._problems():
            executor = OverlapExecutor(problem, SETTINGS)
            predictor = LatencyPredictor(
                OfflineProfile.build(problem, SETTINGS), total_bytes=problem.output_bytes()
            )
            for group in (1, 2, 4, 8):
                partition = WavePartition.equal_groups(executor.num_waves(), group)
                predicted = predictor.predict(partition)
                actual = executor.simulate(partition).latency
                errors.append(abs(actual - predicted) / actual)
        assert float(np.mean(errors)) < 0.10

    def test_predictive_search_reaches_99_percent_of_exhaustive(self):
        for problem in self._problems():
            quality = search_quality(problem, SETTINGS)
            assert quality["performance_ratio"] > 0.97

    def test_tuned_partition_beats_fixed_groupings_somewhere(self):
        # Fig. 14: no single fixed group size wins everywhere, the tuner does.
        wins = 0
        for problem in self._problems():
            executor = OverlapExecutor(problem, SETTINGS)
            tuned = PredictiveTuner(SETTINGS).tune(problem)
            tuned_latency = executor.simulate(tuned.partition).latency
            fixed = min(
                executor.simulate(WavePartition.equal_groups(executor.num_waves(), g)).latency
                for g in (1, 4)
            )
            if tuned_latency <= fixed * 1.001:
                wins += 1
        assert wins >= 2


class TestExperimentE3Overhead:
    """Artifact E3: reordering overheads stay within the paper's bounds."""

    def test_rmsnorm_overhead_within_10_percent(self):
        config = GemmTileConfig(tile_m=128, tile_n=128)
        for device in (A800, RTX_4090):
            model = ReorderOverheadModel(device)
            for unit in ("tile", "subtile", "subtoken"):
                overhead = model.elementwise_overhead(
                    unit, config, n_gpus=4, shape=GemmShape(4096, 8192, 8192)
                )
                assert overhead < 0.105

    def test_gemm_overhead_within_1_percent(self):
        config = GemmTileConfig(tile_m=128, tile_n=128)
        for device in (A800, RTX_4090):
            model = ReorderOverheadModel(device)
            for unit in ("tile", "subtile", "subtoken"):
                overhead = model.gemm_epilogue_overhead(
                    unit, config, n_gpus=4, shape=GemmShape(4096, 8192, 8192)
                )
                assert overhead < 0.01
