#!/usr/bin/env python3
"""Mixtral-8x7B expert-parallel training: overlapping GEMM with All-to-All.

MoE layers route tokens dynamically, so the expert GEMMs and the combine
All-to-All are imbalanced across GPUs.  This example shows:

* the routing imbalance produced by a skewed expert popularity,
* how the imbalance stretches both phases of the GEMM+A2A operator,
* the tuned overlap plan and its speedup, per layer and end to end,
* the numerical correctness of the sub-token reordering on a small instance.

Run with:  python examples/moe_alltoall_training.py
"""

from __future__ import annotations

import numpy as np

from repro import CollectiveKind, FlashOverlapOperator, GemmShape, GemmTileConfig, OverlapProblem
from repro.analysis.breakdown import breakdown_fractions
from repro.analysis.reporting import format_table
from repro.comm.topology import InterconnectKind, Topology
from repro.e2e import EndToEndEstimator
from repro.gpu.device import GPUSpec
from repro.workloads.e2e import mixtral_training_workload
from repro.workloads.moe import MIXTRAL_8X7B, route_tokens


def routing_demo() -> None:
    report = route_tokens(num_tokens=32768, config=MIXTRAL_8X7B, ep=4, concentration=1.0, seed=0)
    rows = [[f"GPU {gpu}", int(tokens)] for gpu, tokens in enumerate(report.tokens_per_gpu)]
    print(format_table(["rank", "routed tokens"], rows, title="Expert-parallel token routing (EP=4)"))
    print(f"imbalance factor (max / mean): {report.imbalance_factor:.3f}\n")


def layer_demo() -> None:
    estimate = EndToEndEstimator().estimate(mixtral_training_workload(input_tokens=32768, layers=1))
    shares = breakdown_fractions(estimate)
    rows = [[pattern, f"{share * 100:.1f}%"] for pattern, share in shares.items()]
    print(format_table(["pattern", "share of layer latency"], rows,
                       title="Mixtral-8x7B training layer (EP=4, TP=2) breakdown"))
    print()
    for op in estimate.operators:
        if op.is_overlap_target:
            print(f"  {op.name:30s} {op.speedup:.3f}x")
    print(f"\nend-to-end layer speedup with FlashOverlap: {estimate.speedup:.3f}x\n")


def correctness_demo() -> None:
    """Sub-token reordering keeps every routed token intact."""
    device = GPUSpec(name="tiny-npu", sm_count=8, fp16_tflops=4.0, hbm_bandwidth_gbps=200.0)
    topology = Topology(
        name="tiny-ep", n_gpus=4, kind=InterconnectKind.PCIE,
        peak_bus_bandwidth_gbps=10.0, base_latency_us=20.0, half_saturation_mb=0.5,
        comm_sm_count=2, supports_p2p=False,
    )
    problem = OverlapProblem(
        shape=GemmShape(m=64, n=48, k=32),
        device=device,
        topology=topology,
        collective=CollectiveKind.ALL_TO_ALL,
        gemm_config=GemmTileConfig(tile_m=8, tile_n=8, tile_k=8, swizzle_size=2),
        imbalance=1.3,
    )
    operator = FlashOverlapOperator(problem)
    result = operator.run_numeric(rng=np.random.default_rng(1))
    status = "all close" if result.allclose() else "MISMATCH"
    print(f"sub-token All-to-All correctness check: {status} "
          f"(max |error| = {result.max_abs_error():.2e})")


if __name__ == "__main__":
    routing_demo()
    layer_demo()
    correctness_demo()
