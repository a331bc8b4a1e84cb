"""The public FlashOverlap operator and the one pricing rule.

:func:`price_plan` is the only code that chooses between overlap and the
sequential fallback, so a :class:`PricedPlan` is never slower than the plain
GEMM-then-collective run.  The plan store, the operator and sweep jobs all
price through it.

:class:`FlashOverlapOperator` ties the pieces together for one
"GEMM + collective" instance:

1. :meth:`report` tunes the problem and prices the pick with
   :func:`price_plan` (memoized);
2. :meth:`simulate` executes that choice -- the tuned partition or the
   sequential fallback -- on the simulated device, returning the
   latency/trace (what every performance benchmark measures);
3. :meth:`plan` resolves the functional :class:`OverlapPlan` -- the
   wave-group partition, the tile-to-group assignment and the reordering
   plan -- which :meth:`run_numeric` executes on NumPy data and checks
   against the plain collective (what the correctness tests assert).

Pricing needs only the partition and the fallback flag of the tuning
result, so :meth:`simulate`, :meth:`report` and :meth:`speedup` never build
the per-tile assignment or the reordering plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    assignment: GroupAssignment
    reorder_plan: ReorderPlan
    tuning: TuningResult

    @property
    def partition(self) -> WavePartition:
        return self.tuning.partition

    @property
    def num_groups(self) -> int:
        return self.partition.num_groups

    @property
    def use_overlap(self) -> bool:
        """False when :func:`price_plan` found the sequential fallback faster."""
        return self.tuning.use_overlap


#: Version of :func:`price_plan`'s arithmetic.  Stored prices carry it (the
#: sweep's priced-cell keys), so a price made by another rule is never
#: replayed.  Bump it whenever ``price_plan``'s arithmetic changes.
PRICING_VERSION = 1


@dataclass(frozen=True)
class PricedPlan:
    """One tuned problem, priced against the sequential run and the bound."""

    problem: OverlapProblem  # the problem the plan was priced for
    tuning: TuningResult  # its ``use_overlap`` checked against the simulation
    overlap_latency: float  # simulated latency of the chosen execution
    non_overlap_latency: float  # sequential GEMM-then-collective baseline
    theoretical_latency: float  # perfect-overlap lower bound

    @property
    def speedup(self) -> float:
        return self.non_overlap_latency / self.overlap_latency

    @property
    def ratio_of_theoretical(self) -> float:
        """Fraction of the perfect-overlap speedup actually achieved."""
        return self.theoretical_latency / self.overlap_latency


def price_plan(
    problem: OverlapProblem,
    tuning: TuningResult,
    settings: OverlapSettings = DEFAULT_SETTINGS,
) -> PricedPlan:
    """Price ``tuning`` on ``problem``, falling back when overlap is slower.

    The tuning's ``use_overlap`` flag is a prediction -- and a warm-start
    entry may even have been tuned for another shape or platform -- so the
    tuned partition is always simulated on *this* problem and kept only if
    it is no slower than the simulated sequential execution.
    """
    executor = OverlapExecutor(problem, settings)
    sequential_latency = executor.simulate_sequential().latency
    candidate_latency = executor.simulate(tuning.partition).latency
    # bool(): a NumPy latency would otherwise leak a non-JSON np.bool_.
    use_overlap = bool(candidate_latency <= sequential_latency)
    if use_overlap != tuning.use_overlap:
        tuning = replace(tuning, use_overlap=use_overlap)
    return PricedPlan(
        problem=problem,
        tuning=tuning,
        overlap_latency=candidate_latency if use_overlap else sequential_latency,
        non_overlap_latency=NonOverlapBaseline(settings).latency(problem),
        theoretical_latency=executor.theoretical_latency(),
    )


class FlashOverlapOperator:
    """High-level API over one "GEMM followed by collective" instance."""

    def __init__(
        self, problem: OverlapProblem, settings: OverlapSettings = DEFAULT_SETTINGS
    ) -> None:
        self.problem = problem
        self.settings = settings
        self.executor = OverlapExecutor(problem, settings)
        self.tuner = PredictiveTuner(settings)
        self._priced: PricedPlan | None = None
        self._cached_plan: OverlapPlan | None = None

    # -- planning ----------------------------------------------------------------

    def plan(self) -> OverlapPlan:
        """The functional overlap plan of :meth:`report`'s priced tuning (memoized)."""
        if self._cached_plan is None:
            tuning = self.report().tuning
            assignment = self.executor.assignment(tuning.partition)
            reorder = build_reorder_plan(
                self.problem.collective,
                self.executor.gemm_contended.layout,
                [list(t) for t in assignment.group_tiles],
                self.problem.n_gpus,
            )
            self._cached_plan = OverlapPlan(
                problem=self.problem,
                assignment=assignment,
                reorder_plan=reorder,
                tuning=tuning,
            )
        return self._cached_plan

    # -- performance ---------------------------------------------------------------

    def report(self) -> PricedPlan:
        """The predictive tuner's pick priced by :func:`price_plan` (memoized)."""
        if self._priced is None:
            tuning = self.tuner.tune(self.problem)
            self._priced = price_plan(self.problem, tuning, self.settings)
        return self._priced

    def simulate(self, plan: OverlapPlan | None = None) -> OverlapResult:
        """Simulate ``plan``, or the priced choice of :meth:`report` when omitted."""
        choice = plan if plan is not None else self.report().tuning
        if not choice.use_overlap:
            return self.executor.simulate_sequential()
        return self.executor.simulate(choice.partition)

    def speedup(self) -> float:
        return self.report().speedup

    # -- correctness ---------------------------------------------------------------

    def run_numeric(
        self,
        rng: np.random.Generator | None = None,
        compute_gemm: bool = False,
    ) -> PipelineResult:
        """Execute :meth:`plan` on NumPy data and compare with the plain collective.

        ``compute_gemm=True`` generates actual ``A @ B_g`` partial products
        (tensor-parallel style) instead of random partial outputs; this is
        slower but demonstrates the full GEMM-then-collective data flow.  A
        ReduceScatter applies :func:`~repro.gpu.epilogue.rmsnorm` between the
        collective halves.
        """
        plan = self.plan()
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
                elementwise=rmsnorm,
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
