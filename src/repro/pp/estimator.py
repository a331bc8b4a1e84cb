"""Pipeline estimator: schedules and scores one pipeline workload.

For every requested schedule the estimator generates the timed cell order
three times -- once per execution method (non-overlap baseline,
FlashOverlap, perfect-overlap bound), because cell durations differ per
method and the zero-bubble W placement depends on them -- and derives:

* **step latency** -- the makespan of one training step;
* **bubble ratio** -- ``1 - useful_work / (stages * step)`` where useful
  work counts F + B + W compute only (GPipe's recomputation is overhead, so
  its bubble ratio stays above 1F1B's even when their step structures match);
* **per-stage timelines** -- busy/idle split and cell spans, exportable as a
  Chrome trace (one thread per stage).

The embedded :class:`~repro.e2e.estimator.WorkloadEstimate` of the microbatch
stream is computed first, through the same estimator and plan store, so a
``--stages 1 --microbatches 1`` pipeline run reports totals bit-identical to
``repro e2e`` on the same workload (asserted by the differential tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.config import DEFAULT_SETTINGS, OverlapSettings
from repro.e2e.estimator import EndToEndEstimator, WorkloadEstimate
from repro.pp.pricing import METHODS, PipelineCosts, price_pipeline
from repro.pp.schedule import (
    KNOWN_SCHEDULES,
    Schedule,
    generate_schedule,
    stage_peak_inflight,
)
from repro.sim.trace import Trace
from repro.workloads.pipeline import PipelineWorkload

__all__ = ["ScheduleMethodResult", "ScheduleEstimate", "PipelineEstimate", "PipelineEstimator"]


@dataclass(frozen=True)
class ScheduleMethodResult:
    """One schedule timed under one execution method."""

    method: str
    step_latency: float
    bubble_ratio: float
    useful_work: float
    #: Per-stage busy time (cells executing, recomputation included).
    stage_busy: tuple[float, ...]
    #: Per-stage idle time within the step (step - busy).
    stage_idle: tuple[float, ...]
    #: Per-stage peak count of in-flight microbatch activations
    #: (:func:`~repro.pp.schedule.stage_peak_inflight`) -- what the planner
    #: sizes peak activation memory from.
    stage_peak_microbatches: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "step_latency": self.step_latency,
            "bubble_ratio": self.bubble_ratio,
            "useful_work": self.useful_work,
            "stage_busy": list(self.stage_busy),
            "stage_idle": list(self.stage_idle),
            "stage_peak_microbatches": list(self.stage_peak_microbatches),
        }


@dataclass
class ScheduleEstimate:
    """One schedule's results across all execution methods."""

    name: str
    methods: dict[str, ScheduleMethodResult]
    num_cells: int
    #: Trace of the FlashOverlap arm (one stream per stage).
    trace: Trace | None = None

    @property
    def step_latency(self) -> float:
        """The FlashOverlap step latency (the headline number)."""
        return self.methods["overlap"].step_latency

    @property
    def bubble_ratio(self) -> float:
        return self.methods["overlap"].bubble_ratio

    @property
    def speedup(self) -> float:
        """FlashOverlap step speedup over the non-overlap execution."""
        return self.methods["non-overlap"].step_latency / self.step_latency

    @property
    def bound_speedup(self) -> float:
        return (
            self.methods["non-overlap"].step_latency
            / self.methods["theoretical"].step_latency
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_cells": self.num_cells,
            "speedup": self.speedup,
            "bound_speedup": self.bound_speedup,
            "methods": {method: result.to_dict() for method, result in self.methods.items()},
        }


@dataclass
class PipelineEstimate:
    """One pipeline workload across all requested schedules."""

    name: str
    stage_layers: tuple[int, ...]
    microbatches: int
    microbatch_tokens: int | None
    activation_bytes: float
    fwd_delay: float
    bwd_delay: float
    synthesized_backward: bool
    schedules: dict[str, ScheduleEstimate]
    #: The microbatch stream estimated end-to-end through the same plan
    #: store (``repro e2e`` of one microbatch; its totals are the
    #: no-pipelining reference and the S=1/M=1 differential anchor).
    microbatch_estimate: WorkloadEstimate | None = None
    plan_stats: dict = field(default_factory=dict)

    @property
    def num_stages(self) -> int:
        return len(self.stage_layers)

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "stage_layers": list(self.stage_layers),
            "microbatches": self.microbatches,
            "microbatch_tokens": self.microbatch_tokens,
            "activation_bytes": self.activation_bytes,
            "fwd_delay": self.fwd_delay,
            "bwd_delay": self.bwd_delay,
            "synthesized_backward": self.synthesized_backward,
            "schedules": {name: est.to_dict() for name, est in self.schedules.items()},
            "plan_stats": self.plan_stats,
        }
        if self.microbatch_estimate is not None:
            payload["e2e"] = self.microbatch_estimate.to_dict()
        return payload


class PipelineEstimator:
    """Estimate pipeline schedules through a shared plan store.

    Like :class:`~repro.e2e.estimator.EndToEndEstimator` (which it embeds and
    shares its plan store with), one estimator instance reuses tuned plans
    across workloads, schedules and stage/microbatch-count scans; the
    reported latencies are bit-identical with reuse disabled.
    """

    def __init__(self, settings: OverlapSettings = DEFAULT_SETTINGS, reuse: bool = True) -> None:
        self.e2e = EndToEndEstimator(settings, reuse=reuse)

    @property
    def plan_store(self):
        return self.e2e.plan_store

    def estimate(
        self,
        workload: PipelineWorkload,
        schedules: tuple[str, ...] = tuple(KNOWN_SCHEDULES),
        record_trace: bool = False,
    ) -> PipelineEstimate:
        with obs.span("pp.estimate", workload=workload.name):
            return self._estimate(workload, schedules, record_trace)

    def _estimate(
        self,
        workload: PipelineWorkload,
        schedules: tuple[str, ...],
        record_trace: bool,
    ) -> PipelineEstimate:
        hits_before = self.plan_store.hits
        misses_before = self.plan_store.misses
        # The microbatch stream first: its estimate sees the same fresh-store
        # hit/miss sequence `repro e2e` would, so the embedded report is
        # bit-identical to an e2e run of the same workload.
        microbatch_estimate = self.e2e.estimate(workload.microbatch)
        with obs.span("pp.price"):
            costs = price_pipeline(workload, self.e2e)

        estimates = {}
        for name in schedules:
            with obs.span("pp.schedule", schedule=name):
                estimates[name] = self._estimate_schedule(name, workload, costs, record_trace)
        lookups = (self.plan_store.hits - hits_before) + (
            self.plan_store.misses - misses_before
        )
        hits = self.plan_store.hits - hits_before
        return PipelineEstimate(
            name=workload.name,
            stage_layers=workload.stage_layers,
            microbatches=workload.microbatches,
            microbatch_tokens=workload.microbatch_tokens,
            activation_bytes=workload.activation_bytes,
            fwd_delay=costs.fwd_delay,
            bwd_delay=costs.bwd_delay,
            synthesized_backward=costs.synthesized_backward,
            schedules=estimates,
            microbatch_estimate=microbatch_estimate,
            plan_stats={
                "lookups": lookups,
                "hits": hits,
                "misses": self.plan_store.misses - misses_before,
                "hit_rate": hits / lookups if lookups else 0.0,
            },
        )

    def _estimate_schedule(
        self,
        name: str,
        workload: PipelineWorkload,
        costs: PipelineCosts,
        record_trace: bool,
    ) -> ScheduleEstimate:
        methods: dict[str, ScheduleMethodResult] = {}
        trace = None
        num_cells = 0
        for method in METHODS:
            schedule = generate_schedule(
                name,
                costs.vectors[method],
                workload.microbatches,
                fwd_delay=costs.fwd_delay,
                bwd_delay=costs.bwd_delay,
            )
            methods[method] = _score(schedule, method)
            num_cells = schedule.num_cells
            if record_trace and method == "overlap":
                trace = schedule.trace()
        return ScheduleEstimate(name=name, methods=methods, num_cells=num_cells, trace=trace)


def _score(schedule: Schedule, method: str) -> ScheduleMethodResult:
    useful = schedule.useful_work()
    step = schedule.makespan
    busy = schedule.stage_work()
    bubble = 1.0 - useful / (schedule.num_stages * step) if step > 0 else 0.0
    return ScheduleMethodResult(
        method=method,
        step_latency=step,
        bubble_ratio=bubble,
        useful_work=useful,
        stage_busy=busy,
        stage_idle=tuple(step - b for b in busy),
        stage_peak_microbatches=stage_peak_inflight(schedule),
    )
