"""FlashOverlap reproduction: computation/communication overlap via signaling
and reordering, on a simulated multi-GPU substrate.

The package mirrors the paper's structure:

* :mod:`repro.gpu` -- GEMM wave/tile execution model and device presets,
* :mod:`repro.comm` -- NCCL-like collectives (functional + latency models),
* :mod:`repro.sim` -- event engine and span traces of two-stream execution,
* :mod:`repro.tensor` -- tile layouts and the tile gather/scatter helpers,
* :mod:`repro.core` -- the FlashOverlap design (signaling, reordering, wave
  grouping, predictive tuning) and the baselines it is compared against,
* :mod:`repro.workloads` -- GEMM shape suites and model-level workloads,
* :mod:`repro.analysis` -- speedup/heatmap/breakdown reporting helpers,
* :mod:`repro.sweep` -- parallel scenario sweeps (matrices, presets, worker
  fan-out, JSONL result store, aggregation),
* :mod:`repro.plans` -- the shared store of tuned, pre-simulated overlap
  plans (keyed by the exact problem) behind serving and e2e estimation,
* :mod:`repro.serve` -- online serving simulation (request traffic,
  continuous batching, one cached plan per token bucket, TTFT/TPOT/goodput metrics),
* :mod:`repro.e2e` -- whole-model latency estimation over the paper's
  end-to-end workloads with cross-layer plan reuse (Table 4 / Fig. 12).

Quickstart::

    from repro import (
        FlashOverlapOperator, OverlapProblem, GemmShape,
        RTX_4090, rtx4090_pcie, CollectiveKind,
    )

    problem = OverlapProblem(
        shape=GemmShape(m=4096, n=8192, k=7168),
        device=RTX_4090,
        topology=rtx4090_pcie(4),
        collective=CollectiveKind.ALL_REDUCE,
    )
    op = FlashOverlapOperator(problem)
    print(op.report().speedup)
"""

from repro.comm import (
    CollectiveKind,
    CollectiveModel,
    Topology,
    a800_nvlink,
    ascend_hccs,
    rtx4090_pcie,
)
from repro.core import (
    DEFAULT_SETTINGS,
    FlashOverlapOperator,
    OverlapPlan,
    OverlapProblem,
    OverlapSettings,
    PricedPlan,
    WavePartition,
)
from repro.gpu import (
    A800,
    ASCEND_910B,
    RTX_4090,
    GemmKernelModel,
    GemmShape,
    GemmTileConfig,
    GPUSpec,
)
from repro.serve import (
    PlanCache,
    PoissonArrivals,
    ServeConfig,
    ServingSimulator,
    TraceArrivals,
)
from repro.sweep import (
    Platform,
    ResultStore,
    Scenario,
    ScenarioMatrix,
    SweepRunner,
    matrix_from_preset,
    sweep_presets,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "FlashOverlapOperator",
    "OverlapProblem",
    "OverlapSettings",
    "OverlapPlan",
    "PricedPlan",
    "WavePartition",
    "DEFAULT_SETTINGS",
    # gpu
    "GPUSpec",
    "GemmShape",
    "GemmTileConfig",
    "GemmKernelModel",
    "RTX_4090",
    "A800",
    "ASCEND_910B",
    # comm
    "CollectiveKind",
    "CollectiveModel",
    "Topology",
    "rtx4090_pcie",
    "a800_nvlink",
    "ascend_hccs",
    # sweep
    "Platform",
    "Scenario",
    "ScenarioMatrix",
    "SweepRunner",
    "ResultStore",
    "matrix_from_preset",
    "sweep_presets",
    # serve
    "PoissonArrivals",
    "TraceArrivals",
    "PlanCache",
    "ServeConfig",
    "ServingSimulator",
]
