"""Reporting for pipeline-schedule estimates (``repro pp``).

One :class:`PipelineReport` aggregates the estimates of several workloads run
through one shared plan store: per-schedule step latencies under the three
execution methods, bubble ratios, per-stage busy/idle timelines and the plan
store's cross-run reuse stats.  ``to_dict()`` is JSON-stable -- identical runs
produce byte-identical reports, which is what the committed golden fixtures
under ``tests/golden/pp/`` diff against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import ReportMixin, format_table
from repro.comm.topology import Topology
from repro.core.config import DEFAULT_SETTINGS, OverlapSettings
from repro.gpu.device import A800, GPUSpec
from repro.pp.estimator import PipelineEstimate, PipelineEstimator
from repro.pp.schedule import KNOWN_SCHEDULES
from repro.workloads.pipeline import build_pipeline_workload

__all__ = ["PipelineReport", "estimate_pipelines"]


@dataclass
class PipelineReport(ReportMixin):
    """Estimates of several pipeline workloads plus shared plan-store stats."""

    estimates: list[PipelineEstimate]
    plan_stats: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def by_name(self) -> dict[str, PipelineEstimate]:
        return {estimate.name: estimate for estimate in self.estimates}

    # -- rendering -------------------------------------------------------------------

    def table(self, estimate: PipelineEstimate) -> str:
        """Per-schedule step latencies and bubble ratios of one workload."""
        rows = []
        for name, schedule in estimate.schedules.items():
            rows.append(
                [
                    name,
                    f"{schedule.methods['non-overlap'].step_latency * 1e3:.3f}",
                    f"{schedule.methods['overlap'].step_latency * 1e3:.3f}",
                    f"{schedule.methods['theoretical'].step_latency * 1e3:.3f}",
                    f"{schedule.bubble_ratio * 100:.1f}%",
                    f"{schedule.speedup:.3f}x",
                ]
            )
        return format_table(
            [
                "schedule",
                "non-overlap (ms)",
                "FlashOverlap (ms)",
                "bound (ms)",
                "bubble",
                "speedup",
            ],
            rows,
            title=(
                f"{estimate.name}: {estimate.num_stages} stages "
                f"{estimate.stage_layers}, {estimate.microbatches} microbatches"
            ),
        )

    def summary_table(self) -> str:
        """The headline rendering of the ``repro.api`` report protocol."""
        return "\n\n".join(self.table(estimate) for estimate in self.estimates)

    def to_dict(self) -> dict:
        return self._with_observability({
            "meta": self.meta,
            "workloads": {estimate.name: estimate.to_dict() for estimate in self.estimates},
            "plan_store": self.plan_stats,
        })


def estimate_pipelines(
    names: list[str],
    stages: int,
    microbatches: int,
    schedules: tuple[str, ...] = tuple(KNOWN_SCHEDULES),
    tokens: int | None = None,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int | None = None,
    settings: OverlapSettings = DEFAULT_SETTINGS,
    reuse: bool = True,
    record_trace: bool = False,
    partition: tuple[int, ...] | None = None,
) -> PipelineReport:
    """Estimate the named registry workloads under pipeline parallelism.

    All workloads run through one shared plan store (cross-workload reuse);
    every knob applies to each workload.  ``partition`` overrides the
    balanced stage split with an explicit per-stage layer count (what a
    replayed planner JSON carries).
    """
    estimator = PipelineEstimator(settings, reuse=reuse)
    estimates = []
    for name in names:
        workload = build_pipeline_workload(
            name,
            stages=stages,
            microbatches=microbatches,
            tokens=tokens,
            device=device,
            topology=topology,
            layers=layers,
            partition=partition,
        )
        estimates.append(estimator.estimate(workload, schedules, record_trace=record_trace))
    meta = {
        "workloads": names,
        "stages": stages,
        "microbatches": microbatches,
        "schedules": list(schedules),
        "tokens": tokens,
        "layers": layers,
        "device": device.name,
        "seed": settings.seed,
        "reuse": reuse,
    }
    # Only an explicit partition appears in the meta -- the default balanced
    # split keeps the report (and the committed golden fixtures) unchanged.
    if partition is not None:
        meta["partition"] = list(partition)
    return PipelineReport(
        estimates=estimates,
        plan_stats=estimator.plan_store.stats(),
        meta=meta,
    )
