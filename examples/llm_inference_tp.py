#!/usr/bin/env python3
"""Llama3-70B tensor-parallel inference: where the communication time goes and
what overlapping buys end to end.

Reproduces, for one decoder layer under TP=8 on simulated A800 GPUs:

* the Fig. 4-style latency-share breakdown (how much of the time is
  "GEMM followed by AllReduce"),
* the per-operator speedups of the two row-parallel projections,
* the end-to-end speedup of the layer, compared against the vanilla
  decomposition baseline.

Run with:  python examples/llm_inference_tp.py
"""

from __future__ import annotations

from repro.analysis.breakdown import breakdown_fractions
from repro.analysis.reporting import format_table
from repro.core.baselines import VanillaDecompositionBaseline
from repro.e2e import EndToEndEstimator
from repro.workloads.e2e import llama3_inference_workload


def main() -> None:
    workload = llama3_inference_workload(chunk_size=16384, layers=1)
    estimate = EndToEndEstimator().estimate(workload)
    print(f"workload: {workload.name} (one decoder layer, chunked prefill of 16384 tokens)\n")

    shares = breakdown_fractions(estimate)
    rows = [[pattern, f"{share * 100:.1f}%"] for pattern, share in shares.items()]
    print(format_table(["pattern", "share of layer latency"], rows,
                       title="Latency breakdown (non-overlapped execution)"))

    print()
    operator_rows = [[op.name, f"{op.speedup:.3f}x"]
                     for op in estimate.operators if op.is_overlap_target]
    print(format_table(["overlapped operator", "speedup"], operator_rows,
                       title="Per-operator speedups with FlashOverlap"))

    # The estimator prices non-overlap, FlashOverlap and the bound; the
    # vanilla decomposition is priced operator by operator over the stream.
    vanilla = VanillaDecompositionBaseline()
    vanilla_total = workload.layers * sum(
        (vanilla.latency(op.problem) if op.problem is not None else op.other_latency) * op.count
        for op in workload.operators
    )
    print()
    print(f"end-to-end layer speedup, FlashOverlap          : {estimate.speedup:.3f}x")
    print(f"end-to-end layer speedup, vanilla decomposition : "
          f"{estimate.non_overlap_total / vanilla_total:.3f}x")
    print(f"time spent in GEMM+collective pairs             : "
          f"{(1.0 - shares['others']) * 100:.1f}%")


if __name__ == "__main__":
    main()
