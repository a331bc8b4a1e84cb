"""The public FlashOverlap operator.

:class:`FlashOverlapOperator` ties the pieces together for one
"GEMM + collective" instance:

1. :meth:`simulate` runs the offline + online tuning stages (memoized) and
   executes the tuned partition on the simulated device, returning the
   latency/trace (what every performance benchmark measures);
2. :meth:`report` compares that against the sequential baseline and the
   perfect-overlap bound;
3. :meth:`plan` resolves the functional :class:`OverlapPlan` -- the
   wave-group partition, the tile-to-group assignment and the reordering
   plan -- which :meth:`run_numeric` executes on NumPy data and checks
   against the plain collective (what the correctness tests assert).

Pricing needs only the partition and the fallback flag of the tuning
result, so :meth:`simulate`, :meth:`report` and :meth:`speedup` never build
the per-tile assignment or the reordering plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.primitives import CollectiveKind
from repro.core.baselines import NonOverlapBaseline
from repro.core.config import DEFAULT_SETTINGS, OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor, OverlapResult
from repro.core.reordering import (
    PipelineResult,
    ReorderPlan,
    build_reorder_plan,
    run_all_to_all_pipeline,
    run_allreduce_pipeline,
    run_reduce_scatter_pipeline,
)
from repro.core.signaling import GroupAssignment
from repro.core.tuner import PredictiveTuner, TuningResult
from repro.core.wave_grouping import WavePartition
from repro.gpu.epilogue import rmsnorm


@dataclass(frozen=True)
class OverlapPlan:
    """A fully resolved overlap configuration for one problem."""

    problem: OverlapProblem
    partition: WavePartition
    assignment: GroupAssignment
    reorder_plan: ReorderPlan
    tuning: TuningResult | None = None

    @property
    def num_groups(self) -> int:
        return self.partition.num_groups

    @property
    def use_overlap(self) -> bool:
        """False when the tuner decided the sequential fallback is faster."""
        return self.tuning.use_overlap if self.tuning is not None else True

    def describe(self) -> str:
        mode = "overlap" if self.use_overlap else "sequential fallback"
        return (
            f"{self.problem.describe()}: {self.partition.num_waves} waves "
            f"partitioned as {self.partition} ({mode})"
        )


@dataclass(frozen=True)
class SpeedupReport:
    """Summary of one operator-level comparison."""

    problem_description: str
    overlap_latency: float
    non_overlap_latency: float
    theoretical_latency: float

    @property
    def speedup(self) -> float:
        return self.non_overlap_latency / self.overlap_latency

    @property
    def ratio_of_theoretical(self) -> float:
        """Fraction of the perfect-overlap speedup actually achieved."""
        return self.theoretical_latency / self.overlap_latency


class FlashOverlapOperator:
    """High-level API over one "GEMM followed by collective" instance."""

    def __init__(
        self, problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
    ) -> None:
        self.problem = problem
        self.settings = settings
        self.executor = OverlapExecutor(problem, settings)
        self.tuner = PredictiveTuner(settings)
        self._tuning: TuningResult | None = None
        self._cached_plan: OverlapPlan | None = None

    # -- planning ----------------------------------------------------------------

    def _tuned(self) -> TuningResult:
        """The predictive tuner's pick for this problem (memoized)."""
        if self._tuning is None:
            self._tuning = self.tuner.tune(self.problem)
        return self._tuning

    def plan(self, partition: WavePartition | None = None) -> OverlapPlan:
        """Produce (and cache) the functional overlap plan.

        When ``partition`` is omitted, the predictive tuner picks it; passing
        one explicitly is how the ablation studies evaluate fixed or
        misconfigured groupings.
        """
        tuning = None
        if partition is None:
            if self._cached_plan is not None:
                return self._cached_plan
            tuning = self._tuned()
            partition = tuning.partition
        assignment = self.executor.assignment(partition)
        reorder = build_reorder_plan(
            self.problem.collective,
            self.executor.gemm_contended.layout,
            [list(t) for t in assignment.group_tiles],
            self.problem.n_gpus,
        )
        plan = OverlapPlan(
            problem=self.problem,
            partition=partition,
            assignment=assignment,
            reorder_plan=reorder,
            tuning=tuning,
        )
        if tuning is not None:
            self._cached_plan = plan
        return plan

    # -- performance ---------------------------------------------------------------

    def simulate(self, plan: OverlapPlan | None = None) -> OverlapResult:
        """Simulate ``plan``, or the tuned partition when it is omitted."""
        if plan is None:
            tuning = self._tuned()
            use_overlap, partition = tuning.use_overlap, tuning.partition
        else:
            use_overlap, partition = plan.use_overlap, plan.partition
        if not use_overlap:
            return self.executor.simulate_sequential()
        return self.executor.simulate(partition)

    def report(self, plan: OverlapPlan | None = None) -> SpeedupReport:
        """Compare the overlapped execution against the sequential baseline."""
        result = self.simulate(plan)
        non_overlap = NonOverlapBaseline(self.settings).latency(self.problem)
        return SpeedupReport(
            problem_description=self.problem.describe(),
            overlap_latency=result.latency,
            non_overlap_latency=non_overlap,
            theoretical_latency=self.executor.theoretical_latency(),
        )

    def speedup(self, plan: OverlapPlan | None = None) -> float:
        return self.report(plan).speedup

    # -- correctness ---------------------------------------------------------------

    def run_numeric(
        self,
        plan: OverlapPlan | None = None,
        rng: np.random.Generator | None = None,
        compute_gemm: bool = False,
        elementwise=None,
    ) -> PipelineResult:
        """Execute the plan on NumPy data and compare with the plain collective.

        ``compute_gemm=True`` generates actual ``A @ B_g`` partial products
        (tensor-parallel style) instead of random partial outputs; this is
        slower but demonstrates the full GEMM-then-collective data flow.
        """
        plan = plan or self.plan()
        rng = rng or np.random.default_rng(self.settings.seed)
        layout = plan.reorder_plan.layout
        n = self.problem.n_gpus
        execution_order = self.executor.gemm_contended.execution_order()

        if compute_gemm:
            k = self.problem.shape.k
            k_split = max(1, k // n)
            a = rng.standard_normal((layout.m, k))
            matrices = []
            for gpu in range(n):
                lo = gpu * k_split
                hi = k if gpu == n - 1 else (gpu + 1) * k_split
                b = rng.standard_normal((hi - lo, layout.n))
                matrices.append(a[:, lo:hi] @ b)
        else:
            matrices = [rng.standard_normal((layout.m, layout.n)) for _ in range(n)]

        kind = self.problem.collective
        if kind == CollectiveKind.ALL_REDUCE:
            return run_allreduce_pipeline(
                matrices,
                plan.reorder_plan,
                assignment=plan.assignment,
                execution_order=execution_order,
            )
        if kind == CollectiveKind.REDUCE_SCATTER:
            return run_reduce_scatter_pipeline(
                matrices,
                plan.reorder_plan,
                elementwise=elementwise if elementwise is not None else rmsnorm,
                assignment=plan.assignment,
                execution_order=execution_order,
            )
        if kind == CollectiveKind.ALL_TO_ALL:
            destinations = [
                rng.integers(0, n, size=layout.m) for _ in range(n)
            ]
            return run_all_to_all_pipeline(
                matrices,
                destinations,
                plans=[plan.reorder_plan] * n,
                assignments=[plan.assignment] * n,
                execution_orders=[execution_order] * n,
            )
        raise ValueError(f"no numeric pipeline for collective {kind}")
