"""Per-stage cell costs: the plan store prices every pipeline operator.

A pipeline cell (forward / input-gradient / weight-gradient pass of one
microbatch through one stage) is a slice of the microbatch operator stream.
Each operator is resolved through the *same* shared
:class:`~repro.plans.PlanCache` the end-to-end estimator uses (via
:meth:`~repro.e2e.estimator.EndToEndEstimator.resolve_operator`), so pipeline
runs share tuned plans with ``repro e2e`` and with each other across stage /
microbatch-count scans, and every cell carries three prices: the non-overlap
baseline, the FlashOverlap execution and the perfect-overlap bound.

Operator classification follows the workload naming convention
(:mod:`repro.workloads.llm` / ``moe`` / ``t2v``):

* names starting with ``bwd-`` are backward operators; of those, names
  containing ``wgrad`` are weight-gradient (``W``) work, the rest (dgrad,
  backward attention, backward elementwise) are input-gradient (``B``) work;
* everything else is forward (``F``) work.

Forward-only streams (the inference workloads) have no backward operators;
pipeline-scheduling them synthesizes the standard training assumption --
input gradients cost one forward, weight gradients another (backward
~ 2x forward) -- and flags the estimate accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.bandwidth import AnalyticBandwidthCurve
from repro.e2e.estimator import EndToEndEstimator
from repro.pp.schedule import StageCostVector
from repro.workloads.operators import OperatorInstance
from repro.workloads.pipeline import PipelineWorkload

__all__ = [
    "METHODS",
    "PipelineCosts",
    "classify_operator",
    "p2p_transfer_seconds",
    "price_pipeline",
]

#: Execution methods every cell is priced under (report order).
METHODS = ("non-overlap", "overlap", "theoretical")


def classify_operator(op: OperatorInstance) -> str:
    """``"forward"`` / ``"dgrad"`` / ``"wgrad"`` from the naming convention."""
    if op.name.startswith("bwd-"):
        return "wgrad" if "wgrad" in op.name else "dgrad"
    return "forward"


@dataclass(frozen=True)
class PipelineCosts:
    """Everything schedule generation needs: stage costs + link delays."""

    #: Per-microbatch cell costs of every stage, one tuple per method.
    vectors: dict[str, tuple[StageCostVector, ...]]
    fwd_delay: float
    bwd_delay: float
    #: True when the backward cells were synthesized from a forward-only
    #: stream (inference workloads; backward assumed ~ 2x forward).
    synthesized_backward: bool = False


def p2p_transfer_seconds(topology, nbytes: float) -> float:
    """One inter-stage point-to-point transfer: base latency + curve time.

    The stage boundary moves one microbatch's activation (or gradient)
    tensor over a single link of the topology; the effective bandwidth
    follows the same size-dependent curve the collectives use.  P2P
    transfers are not overlap targets (FlashOverlap prices GEMM +
    *collective* pairs), so the delay is identical under every method.
    """
    if topology is None or nbytes <= 0:
        return 0.0
    curve = AnalyticBandwidthCurve.for_topology(topology)
    return topology.base_latency_s + float(curve.transfer_time(nbytes))


def price_pipeline(workload: PipelineWorkload, estimator: EndToEndEstimator) -> PipelineCosts:
    """Price one pipeline workload's cells through the shared plan store."""
    # One layer's latency per method and cell kind, each operator x its count.
    per_layer = {method: {"forward": 0.0, "dgrad": 0.0, "wgrad": 0.0} for method in METHODS}
    for op in workload.microbatch.operators:
        kind = classify_operator(op)
        estimate = estimator.resolve_operator(op)
        for method, latency in (
            ("non-overlap", estimate.non_overlap_latency),
            ("overlap", estimate.overlap_latency),
            ("theoretical", estimate.theoretical_latency),
        ):
            per_layer[method][kind] += latency * estimate.count

    synthesized = all(
        costs["dgrad"] == 0.0 and costs["wgrad"] == 0.0 for costs in per_layer.values()
    )
    if synthesized:
        for costs in per_layer.values():
            costs["dgrad"] = costs["wgrad"] = costs["forward"]

    delay = 0.0
    if workload.num_stages > 1:
        delay = p2p_transfer_seconds(workload.topology, workload.activation_bytes)
    return PipelineCosts(
        vectors={
            method: tuple(
                StageCostVector(
                    forward=costs["forward"] * layers,
                    dgrad=costs["dgrad"] * layers,
                    wgrad=costs["wgrad"] * layers,
                )
                for layers in workload.stage_layers
            )
            for method, costs in per_layer.items()
        },
        fwd_delay=delay,
        bwd_delay=delay,
        synthesized_backward=synthesized,
    )
