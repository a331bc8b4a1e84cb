"""FlashOverlap core: signaling, reordering, wave grouping, tuning, operator."""

from repro.core.baselines import (
    AsyncTPBaseline,
    BaselineMethod,
    BaselineResult,
    CublasMpBaseline,
    FluxFusionBaseline,
    NonOverlapBaseline,
    VanillaDecompositionBaseline,
    default_baselines,
)
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.executor import COMM_STREAM, COMPUTE_STREAM, OverlapExecutor, OverlapResult
from repro.core.overlap import FlashOverlapOperator, OverlapPlan, PricedPlan
from repro.core.predictor import LatencyPredictor, OfflineProfile
from repro.core.reordering import (
    PipelineResult,
    ReorderPlan,
    build_reorder_plan,
    run_all_to_all_pipeline,
    run_allreduce_pipeline,
    run_reduce_scatter_pipeline,
)
from repro.core.signaling import CountingTable, GroupAssignment, SignalOrderError
from repro.core.tuner import (
    ExhaustiveTuner,
    GemmShapeCache,
    PredictiveTuner,
    TuningResult,
    search_quality,
)
from repro.core.wave_grouping import (
    PartitionMatrix,
    WavePartition,
    design_space_size,
    pruned_partition_matrix,
)

__all__ = [
    "OverlapProblem",
    "OverlapSettings",
    "DEFAULT_SETTINGS",
    "FlashOverlapOperator",
    "OverlapPlan",
    "PricedPlan",
    "OverlapExecutor",
    "OverlapResult",
    "COMPUTE_STREAM",
    "COMM_STREAM",
    "LatencyPredictor",
    "OfflineProfile",
    "PredictiveTuner",
    "ExhaustiveTuner",
    "GemmShapeCache",
    "TuningResult",
    "search_quality",
    "WavePartition",
    "PartitionMatrix",
    "pruned_partition_matrix",
    "design_space_size",
    "CountingTable",
    "GroupAssignment",
    "SignalOrderError",
    "ReorderPlan",
    "build_reorder_plan",
    "PipelineResult",
    "run_allreduce_pipeline",
    "run_reduce_scatter_pipeline",
    "run_all_to_all_pipeline",
    "BaselineMethod",
    "BaselineResult",
    "NonOverlapBaseline",
    "VanillaDecompositionBaseline",
    "AsyncTPBaseline",
    "FluxFusionBaseline",
    "CublasMpBaseline",
    "default_baselines",
]
