"""Search-space enumeration of the auto-parallelism planner.

The joint space is TP degree x pipeline stages x microbatch count x schedule
x overlap on/off.  TP and stages are coupled through the cluster: every GPU
belongs to exactly one (tensor-parallel group, pipeline stage) pair, so
``tp * stages == cluster.total_gpus`` -- enumerating valid TP degrees fixes
the stage count.  Infeasible combinations are not errors: each one is
recorded as a :class:`SkippedCandidate` with its reason, so a search report
always accounts for the whole requested space (nothing is silently
dropped).  Constraints that need the workload builder (token divisibility,
layers vs. stages, per-model parallelism rules) are discovered by the
planner when it attempts the build; this module checks only the cluster
arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.cluster import ClusterSpec

__all__ = [
    "CandidateShell",
    "SkippedCandidate",
    "default_tp_degrees",
    "enumerate_shells",
]

#: Microbatch counts searched when the caller does not restrict the axis.
DEFAULT_MICROBATCH_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class CandidateShell:
    """One (tp, stages, microbatches) cell, priced on the balanced stage partition."""

    tp: int
    stages: int
    microbatches: int


@dataclass(frozen=True)
class SkippedCandidate:
    """One infeasible or unevaluated cell and why it was left out."""

    tp: int
    stages: int | None
    microbatches: int | None
    reason: str

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "stages": self.stages,
            "microbatches": self.microbatches,
            "reason": self.reason,
        }


def default_tp_degrees(total_gpus: int) -> tuple[int, ...]:
    """Every TP degree the cluster supports: divisors of the GPU count >= 2.

    Degree 1 is excluded -- the overlap substrate models GEMM + *collective*
    pairs, and a collective needs at least two ranks (``Topology`` enforces
    the same floor).
    """
    return tuple(d for d in range(2, total_gpus + 1) if total_gpus % d == 0)


def enumerate_shells(
    cluster: ClusterSpec,
    tp_degrees: Sequence[int] | None = None,
    microbatch_counts: Sequence[int] | None = None,
) -> tuple[list[CandidateShell], list[SkippedCandidate]]:
    """Expand the requested axes into feasible shells plus skip records.

    A non-positive TP degree or microbatch count is malformed input, not an
    infeasible candidate, and raises ``ValueError``.
    """
    total = cluster.total_gpus
    degrees = tuple(tp_degrees) if tp_degrees else default_tp_degrees(total)
    counts = tuple(microbatch_counts) if microbatch_counts else DEFAULT_MICROBATCH_COUNTS
    for axis, values in (("TP degrees", degrees), ("microbatch counts", counts)):
        if min(values, default=1) < 1:
            raise ValueError(f"{axis} must be >= 1, got {sorted(values)}")

    shells: list[CandidateShell] = []
    skipped: list[SkippedCandidate] = []
    for tp in sorted(set(degrees)):
        if tp < 2:
            skipped.append(
                SkippedCandidate(tp, None, None, "a tensor-parallel group needs >= 2 GPUs")
            )
            continue
        if total % tp != 0:
            skipped.append(
                SkippedCandidate(
                    tp, None, None, f"TP={tp} does not divide the {total}-GPU cluster"
                )
            )
            continue
        stages = total // tp
        for microbatches in sorted(set(counts)):
            shells.append(CandidateShell(tp=tp, stages=stages, microbatches=microbatches))
    return shells, skipped
