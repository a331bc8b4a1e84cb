"""Table-4-style reporting of end-to-end estimates.

One :class:`EndToEndReport` aggregates the estimates of several workloads run
through a shared plan store: the whole-model latency under non-overlap /
FlashOverlap / perfect-overlap execution, the per-operator speedup
breakdown, the Fig. 4 pattern shares (via :mod:`repro.analysis.breakdown`)
and the plan-store reuse stats.  ``to_dict()`` is JSON-stable -- identical
runs produce byte-identical reports, which is what the committed golden
fixtures diff against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.breakdown import estimate_breakdown_table
from repro.analysis.reporting import ReportMixin, format_table
from repro.comm.topology import Topology
from repro.core.config import DEFAULT_SETTINGS, OverlapSettings
from repro.e2e.estimator import EndToEndEstimator, WorkloadEstimate
from repro.gpu.device import A800, GPUSpec
from repro.workloads.e2e import build_workload, workload_builders


@dataclass
class EndToEndReport(ReportMixin):
    """Estimates of several workloads plus the shared plan-store stats."""

    estimates: list[WorkloadEstimate]
    plan_stats: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def by_name(self) -> dict[str, WorkloadEstimate]:
        return {estimate.name: estimate for estimate in self.estimates}

    # -- rendering -------------------------------------------------------------------

    def table(self) -> str:
        """The Table 4 summary: one row per application."""
        rows = []
        for estimate in self.estimates:
            rows.append(
                [
                    estimate.name,
                    estimate.layers,
                    f"{estimate.non_overlap_total * 1e3:.3f}",
                    f"{estimate.overlap_total * 1e3:.3f}",
                    f"{estimate.theoretical_total * 1e3:.3f}",
                    f"{estimate.speedup:.3f}x",
                    f"{estimate.bound_speedup:.3f}x",
                    f"{estimate.plan_stats.get('hit_rate', 0.0) * 100:.0f}%",
                ]
            )
        return format_table(
            [
                "application",
                "layers",
                "non-overlap (ms)",
                "FlashOverlap (ms)",
                "bound (ms)",
                "speedup",
                "bound speedup",
                "plan hits",
            ],
            rows,
            title="Table 4 -- end-to-end latency estimates",
        )

    def breakdown_table(self) -> str:
        """The Fig. 4 pattern-share table of every estimated workload."""
        return estimate_breakdown_table(self.estimates)

    def operator_table(self, estimate: WorkloadEstimate) -> str:
        """Per-operator latencies and speedups of one workload's layer."""
        rows = []
        for op in estimate.operators:
            rows.append(
                [
                    op.name,
                    op.pattern,
                    f"{op.non_overlap_latency * 1e3:.3f}",
                    f"{op.overlap_latency * 1e3:.3f}",
                    f"{op.speedup:.3f}x" if op.is_overlap_target else "-",
                    ("overlap" if op.use_overlap else "fallback") if op.is_overlap_target else "-",
                    ("hit" if op.plan_cached else "miss") if op.is_overlap_target else "-",
                ]
            )
        return format_table(
            ["operator", "pattern", "non-overlap (ms)", "FlashOverlap (ms)", "speedup", "mode", "plan"],
            rows,
            title=f"{estimate.name}: per-operator breakdown (one layer)",
        )

    def summary_table(self) -> str:
        """The headline rendering of the ``repro.api`` report protocol."""
        return self.table()

    def to_dict(self) -> dict:
        return self._with_observability({
            "meta": self.meta,
            "workloads": {estimate.name: estimate.to_dict() for estimate in self.estimates},
            "plan_store": self.plan_stats,
        })


def estimate_models(
    names: list[str] | None = None,
    tokens: int | None = None,
    device: GPUSpec = A800,
    topology: Topology | None = None,
    layers: int | None = None,
    settings: OverlapSettings = DEFAULT_SETTINGS,
    reuse: bool = True,
    record_trace: bool = False,
) -> EndToEndReport:
    """Estimate the named paper workloads through one shared plan store.

    ``names=None`` runs all five registry workloads.  All knobs apply to every
    workload (``tokens=None`` keeps each model's paper default input size).
    """
    names = list(names) if names else sorted(workload_builders())
    estimator = EndToEndEstimator(settings, reuse=reuse)
    estimates = []
    for name in names:
        workload = build_workload(
            name, tokens=tokens, device=device, topology=topology, layers=layers
        )
        estimates.append(estimator.estimate(workload, record_trace=record_trace))
    return EndToEndReport(
        estimates=estimates,
        plan_stats=estimator.plan_store.stats(),
        meta={
            "workloads": names,
            "layers": layers,
            "tokens": tokens,
            "device": device.name,
            "seed": settings.seed,
            "reuse": reuse,
        },
    )
