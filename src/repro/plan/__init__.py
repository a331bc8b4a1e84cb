"""Auto-parallelism planner: joint search over TP x PP x microbatches x
schedule x overlap, priced through the shared plan store (``repro plan``)."""

from repro.plan.frontier import PlanPoint, pareto_frontier
from repro.plan.memory import peak_activation_bytes, stage_activation_bytes
from repro.plan.planner import (
    PLAN_METHODS,
    ParallelismPlan,
    estimate_plan,
    replay_plan,
    search_plan,
    verify_replay,
)
from repro.plan.report import PlanSearchReport
from repro.plan.space import (
    CandidateShell,
    SkippedCandidate,
    default_tp_degrees,
    enumerate_shells,
)

__all__ = [
    "PLAN_METHODS",
    "CandidateShell",
    "ParallelismPlan",
    "PlanPoint",
    "PlanSearchReport",
    "SkippedCandidate",
    "default_tp_degrees",
    "enumerate_shells",
    "estimate_plan",
    "pareto_frontier",
    "peak_activation_bytes",
    "replay_plan",
    "search_plan",
    "stage_activation_bytes",
    "verify_replay",
]
