"""Workloads: GEMM shape suites and model-level operator streams.

Two levels of workloads drive the evaluation:

* **operator-level** (:mod:`repro.workloads.shapes`) -- the GEMM size suites
  of Table 3, the typical shapes of Fig. 11, the heatmap grids of Fig. 13 and
  the Ascend shapes of Fig. 16;
* **model-level** (:mod:`repro.workloads.llm`, :mod:`repro.workloads.moe`,
  :mod:`repro.workloads.t2v`, :mod:`repro.workloads.e2e`) -- per-layer
  operator streams of the Table 4 applications (Llama3-70B TP inference and
  training, Mixtral-8x7B EP+TP training, Step-Video-T2V TP inference) and of
  the Fig. 4 Llama2-7B profiling run, plus their pipeline-parallel split
  (:mod:`repro.workloads.pipeline`).

Workloads describe shapes only and price nothing: :mod:`repro.e2e` turns an
operator stream into the Fig. 4 latency breakdown and the Fig. 12 / Table 4
end-to-end speedups, and :mod:`repro.pp` schedules the pipeline split.  The
one thing this package takes from :mod:`repro.core` is
:class:`~repro.core.config.OverlapProblem`, the shape of one overlap target.
"""

from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.shapes import (
    ShapeSuite,
    ascend_suite,
    fig11_shapes,
    fig13_grid,
    operator_suite,
)
from repro.workloads.llm import (
    LLAMA2_7B,
    LLAMA3_70B,
    ModelConfig,
    llm_inference_layer,
    llm_training_layer,
)
from repro.workloads.moe import MIXTRAL_8X7B, MoEConfig, moe_training_layer, route_tokens
from repro.workloads.t2v import STEP_VIDEO_T2V, DiTConfig, t2v_inference_layer
from repro.workloads.operators import EndToEndWorkload, OperatorInstance
from repro.workloads.e2e import (
    llama2_training_workload,
    llama3_inference_workload,
    llama3_training_workload,
    mixtral_training_workload,
    paper_workloads,
    step_video_workload,
)
from repro.workloads.pipeline import (
    PipelineWorkload,
    build_pipeline_workload,
    partition_layers,
)

__all__ = [
    "ParallelismConfig",
    "ShapeSuite",
    "operator_suite",
    "fig11_shapes",
    "fig13_grid",
    "ascend_suite",
    "ModelConfig",
    "LLAMA3_70B",
    "LLAMA2_7B",
    "llm_inference_layer",
    "llm_training_layer",
    "MoEConfig",
    "MIXTRAL_8X7B",
    "moe_training_layer",
    "route_tokens",
    "STEP_VIDEO_T2V",
    "DiTConfig",
    "t2v_inference_layer",
    "EndToEndWorkload",
    "OperatorInstance",
    "llama3_inference_workload",
    "llama3_training_workload",
    "llama2_training_workload",
    "mixtral_training_workload",
    "step_video_workload",
    "paper_workloads",
    "PipelineWorkload",
    "build_pipeline_workload",
    "partition_layers",
]
