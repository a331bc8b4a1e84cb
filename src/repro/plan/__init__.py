"""Auto-parallelism planner: joint search over TP x PP x microbatches x
schedule x overlap, priced through the shared plan store (``repro plan``)."""

from repro.plan.planner import (
    PLAN_METHODS,
    ParallelismPlan,
    replay_plan,
    search_plan,
    verify_replay,
)

__all__ = [
    "PLAN_METHODS",
    "ParallelismPlan",
    "replay_plan",
    "search_plan",
    "verify_replay",
]
