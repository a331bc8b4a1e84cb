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

from repro.comm import CollectiveKind, a800_nvlink, rtx4090_pcie
from repro.core import FlashOverlapOperator, OverlapProblem, WavePartition
from repro.gpu import A800, RTX_4090, GemmShape, GemmTileConfig
from repro.sweep import ResultStore, SweepRunner, matrix_from_preset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "FlashOverlapOperator",
    "OverlapProblem",
    "WavePartition",
    # gpu
    "GemmShape",
    "GemmTileConfig",
    "RTX_4090",
    "A800",
    # comm
    "CollectiveKind",
    "rtx4090_pcie",
    "a800_nvlink",
    # sweep
    "SweepRunner",
    "ResultStore",
    "matrix_from_preset",
]
