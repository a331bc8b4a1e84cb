"""End-to-end model estimator: whole-model latency from an operator stream.

The operator substrate (:mod:`repro.workloads`) describes a model layer as a
stream of :class:`~repro.workloads.operators.OperatorInstance`; this module
runs that stream end to end:

1. every "GEMM + collective" operator is resolved through a shared
   :class:`~repro.plans.PlanCache`, keyed by the exact problem, so each
   *distinct* problem is tuned and ground-truth-simulated exactly once -- repeated
   layers (and shapes shared across workloads) are cache hits;
2. the full stream -- ``layers`` repetitions of the per-layer operator list --
   runs back to back on one stream: the whole-model latency is the in-order
   sum of the occurrence latencies, and an optional
   :class:`~repro.sim.trace.Trace` (one span per occurrence) can be exported
   to Chrome trace format;
3. the same stream is priced under the non-overlap baseline and the
   perfect-overlap bound, giving the Table 4 comparison (overlap vs
   sequential vs bound) per layer and per model.

Everything is deterministic: the same workload, settings and plan store
produce a bit-identical estimate, and disabling plan reuse (``capacity=0``)
changes wall-clock cost but not a single reported latency (asserted by the
differential tests and the e2e benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.config import DEFAULT_SETTINGS, OverlapSettings
from repro.gpu.kernels import KernelCategory
from repro.plans import PlanCache
from repro.sim.trace import Trace
from repro.workloads.operators import EndToEndWorkload, OperatorInstance

#: Trace stream names of the estimator timeline.
STREAM = "model"

#: Plan-store capacity of a standalone estimator run.  Exact-shape keys are
#: few (a handful per distinct layer), so this is effectively unbounded.
DEFAULT_STORE_CAPACITY = 1024


def make_plan_store(settings: OverlapSettings = DEFAULT_SETTINGS, reuse: bool = True) -> PlanCache:
    """The estimator's plan store: exact-shape keys, LRU far off the path.

    ``reuse=False`` sets capacity 0 -- every lookup re-tunes, the "no plan
    reuse" arm of the differential tests and the e2e benchmark.
    """
    return PlanCache(settings, capacity=DEFAULT_STORE_CAPACITY if reuse else 0)


@dataclass(frozen=True)
class OperatorEstimate:
    """Per-occurrence latencies of one operator in the stream."""

    name: str
    pattern: str  # "GEMM+AR" / "GEMM+RS" / "GEMM+A2A" / "others"
    count: int
    is_overlap_target: bool
    overlap_latency: float
    non_overlap_latency: float
    theoretical_latency: float
    use_overlap: bool = True  # False: tuner fell back to sequential execution
    plan_cached: bool = False  # served from the plan store without tuning

    @property
    def speedup(self) -> float:
        return self.non_overlap_latency / self.overlap_latency

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pattern": self.pattern,
            "count": self.count,
            "is_overlap_target": self.is_overlap_target,
            "overlap_latency": self.overlap_latency,
            "non_overlap_latency": self.non_overlap_latency,
            "theoretical_latency": self.theoretical_latency,
            "use_overlap": self.use_overlap,
            "plan_cached": self.plan_cached,
        }


@dataclass
class WorkloadEstimate:
    """The end-to-end estimate of one workload (all layers)."""

    name: str
    layers: int
    #: One entry per operator of one layer, in stream order (first layer's
    #: cache-hit flags; later layers hit the store by construction).
    operators: list[OperatorEstimate]
    overlap_total: float  # makespan of the overlapped stream
    non_overlap_total: float
    theoretical_total: float
    plan_stats: dict = field(default_factory=dict)  # store-hit deltas of this estimate
    trace: Trace | None = None

    @property
    def speedup(self) -> float:
        """End-to-end speedup of FlashOverlap over the non-overlap execution."""
        return self.non_overlap_total / self.overlap_total

    @property
    def bound_speedup(self) -> float:
        """End-to-end speedup of the perfect-overlap bound (Table 4 column)."""
        return self.non_overlap_total / self.theoretical_total

    def pattern_shares(self) -> dict[str, float]:
        """Latency share per pattern (Fig. 4), fractions summing to 1.

        Shares come from the non-overlap pricing, matching the paper's
        profiling figure.
        """
        totals: dict[str, float] = {}
        for op in self.operators:
            totals[op.pattern] = totals.get(op.pattern, 0.0) + op.non_overlap_latency * op.count
        grand = sum(totals.values())
        if grand <= 0:
            return dict.fromkeys(totals, 0.0)
        return {k: v / grand for k, v in sorted(totals.items())}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layers": self.layers,
            "operators": [op.to_dict() for op in self.operators],
            "overlap_total": self.overlap_total,
            "non_overlap_total": self.non_overlap_total,
            "theoretical_total": self.theoretical_total,
            "speedup": self.speedup,
            "bound_speedup": self.bound_speedup,
            "pattern_shares": self.pattern_shares(),
            "plan_stats": self.plan_stats,
        }


class EndToEndEstimator:
    """Estimate whole-model latency through a shared plan store.

    One estimator owns one :class:`~repro.plans.PlanCache` and the
    :class:`~repro.core.config.OverlapSettings` it prices under; workloads
    carry shapes only.  Estimating several workloads through the same
    estimator shares tuned plans across them (cross-layer *and* cross-model
    reuse).  Pass ``reuse=False`` to re-tune every operator occurrence -- the
    estimates are bit-identical either way, only the wall-clock cost differs.
    """

    def __init__(self, settings: OverlapSettings = DEFAULT_SETTINGS, reuse: bool = True) -> None:
        self.settings = settings
        self.plan_store = make_plan_store(settings, reuse=reuse)

    # -- per-operator resolution ---------------------------------------------------

    def resolve_operator(self, op: OperatorInstance) -> OperatorEstimate:
        """Price one operator through the shared plan store.

        The public entry point other consumers reuse (the pipeline scheduler
        prices its forward/backward cells with it), so their per-operator
        latencies are bit-identical to an e2e estimate of the same stream.
        """
        if op.problem is None:
            return OperatorEstimate(
                name=op.name,
                pattern=op.pattern(),
                count=op.count,
                is_overlap_target=False,
                overlap_latency=op.other_latency,
                non_overlap_latency=op.other_latency,
                theoretical_latency=op.other_latency,
            )
        hits_before = self.plan_store.hits
        plan = self.plan_store.lookup(op.problem)
        return OperatorEstimate(
            name=op.name,
            pattern=op.pattern(),
            count=op.count,
            is_overlap_target=True,
            overlap_latency=plan.overlap_latency,
            non_overlap_latency=plan.non_overlap_latency,
            theoretical_latency=plan.theoretical_latency,
            use_overlap=plan.tuning.use_overlap,
            plan_cached=self.plan_store.hits > hits_before,
        )

    # -- stream simulation -----------------------------------------------------------

    def _category(self, estimate: OperatorEstimate) -> KernelCategory:
        if estimate.is_overlap_target:
            return KernelCategory.COMMUNICATION
        return KernelCategory.GEMM if "gemm" in estimate.name.lower() else KernelCategory.OTHER

    def _run_stream(
        self, per_layer: list[OperatorEstimate], layers: int, record_trace: bool
    ) -> tuple[float, Trace | None]:
        """Run the full operator stream back to back on one stream.

        The makespan is the in-order float sum of the occurrence latencies --
        exactly what summing independently simulated operators yields (the
        differential tests assert bit-equality).
        """
        trace = Trace() if record_trace else None
        now = 0.0
        for layer in range(layers):
            for estimate in per_layer:
                for _ in range(estimate.count):
                    start, now = now, now + estimate.overlap_latency
                    if trace is not None:
                        trace.record(
                            STREAM, f"L{layer}/{estimate.name}", start, now,
                            self._category(estimate),
                        )
        return now, trace

    # -- entry point -----------------------------------------------------------------

    def estimate(self, workload: EndToEndWorkload, record_trace: bool = False) -> WorkloadEstimate:
        """Tune-once / reuse-everywhere estimate of one workload."""
        with obs.span("e2e.estimate", workload=workload.name):
            return self._estimate(workload, record_trace)

    def _estimate(self, workload: EndToEndWorkload, record_trace: bool) -> WorkloadEstimate:
        hits_before = self.plan_store.hits
        misses_before = self.plan_store.misses
        tunes_before = self.plan_store.tuner_invocations

        # Resolve each operator once per layer occurrence so the hit/miss
        # stats reflect the reuse structure (layer 2+ of an identical layer
        # hits the store), while the simulated latencies stay exact.
        with obs.span("e2e.price"):
            per_layer = [self.resolve_operator(op) for op in workload.operators]
            for _ in range(workload.layers - 1):
                for op in workload.operators:
                    if op.problem is not None:
                        self.plan_store.lookup(op.problem)

        with obs.span("e2e.replay"):
            overlap_total, trace = self._run_stream(per_layer, workload.layers, record_trace)
        non_overlap_total = 0.0
        theoretical_total = 0.0
        for _ in range(workload.layers):
            for estimate in per_layer:
                for _ in range(estimate.count):
                    non_overlap_total += estimate.non_overlap_latency
                    theoretical_total += estimate.theoretical_latency

        lookups = (self.plan_store.hits - hits_before) + (self.plan_store.misses - misses_before)
        hits = self.plan_store.hits - hits_before
        plan_stats = {
            "lookups": lookups,
            "hits": hits,
            "misses": self.plan_store.misses - misses_before,
            "hit_rate": hits / lookups if lookups else 0.0,
            "tuner_invocations": self.plan_store.tuner_invocations - tunes_before,
        }
        return WorkloadEstimate(
            name=workload.name,
            layers=workload.layers,
            operators=per_layer,
            overlap_total=overlap_total,
            non_overlap_total=non_overlap_total,
            theoretical_total=theoretical_total,
            plan_stats=plan_stats,
            trace=trace,
        )
