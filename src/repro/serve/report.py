"""Report object of one serving simulation (``repro serve`` / ``api.serve``).

Wraps the overlap run (and the optional non-overlap baseline run of the same
traffic) behind the shared report protocol: ``to_dict()`` is the exact JSON
payload ``repro serve --json`` writes, and ``summary_table()`` is the CLI's
human-readable output -- both produced from one object so the CLI and the
Python facade can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import ReportMixin
from repro.serve.metrics import SLO
from repro.serve.simulator import ServeConfig, ServingResult

__all__ = ["ServeReport"]


def _ratio(numerator: float, denominator: float) -> str:
    """``numerator / denominator`` as ``1.234x``; ``n/a`` when the denominator is 0.

    An arm that completes no request (every one timed out, say) has zero
    latency statistics, so its ratios are undefined.
    """
    return f"{numerator / denominator:.3f}x" if denominator else "n/a"


@dataclass
class ServeReport(ReportMixin):
    """One serving simulation: overlap arm, optional baseline, SLO, traffic.

    Fault-injected runs additionally carry the fault-free reference arm (the
    same traffic and config without the fault plan) so the report can state
    goodput-under-failure against the fault-free baseline.
    """

    config: ServeConfig
    slo: SLO
    overlap: ServingResult
    baseline: ServingResult | None = None
    traffic: str = ""
    num_requests: int = 0
    fault_free: ServingResult | None = None
    meta: dict = field(default_factory=dict)

    def fault_summary(self) -> dict | None:
        """The degraded-mode axis; None for a fault-free, policy-free run."""
        stats = self.overlap.fault_stats
        if stats is None:
            return None
        metrics = self.overlap.metrics(self.slo)
        block = {
            "plan": stats["plan"],
            "availability": stats["availability"],
            "crashes": stats["crashes"],
            "failovers": stats["failovers"],
            "recovery_s": stats["recovery_s"],
            "retry_amplification": stats["retry_amplification"],
            "dropped": stats["dropped"],
            "shed": stats["shed"],
            "timed_out": stats["timed_out"],
            "wasted_iterations": stats["wasted_iterations"],
            "goodput_under_failure_rps": metrics.goodput_requests_per_s,
        }
        if self.fault_free is not None:
            reference = self.fault_free.metrics(self.slo)
            block["fault_free_goodput_rps"] = reference.goodput_requests_per_s
            block["goodput_ratio_vs_fault_free"] = (
                metrics.goodput_requests_per_s / reference.goodput_requests_per_s
                if reference.goodput_requests_per_s > 0
                else 0.0
            )
        return block

    def summary_table(self) -> str:
        metrics = self.overlap.metrics(self.slo)
        cache_stats = self.overlap.plan_cache_stats or {}
        lines = [
            f"config     : {self.config.describe()}",
            f"traffic    : {self.num_requests} requests, {self.traffic}",
            f"iterations : {self.overlap.iterations} "
            f"({self.overlap.total_batched_tokens} batched tokens, "
            f"{cache_stats.get('tuner_invocations', 0)} tuner invocations)",
        ]
        for name, stats in (("TTFT", metrics.ttft), ("TPOT", metrics.tpot),
                            ("e2e", metrics.e2e_latency)):
            lines.append(
                f"{name:<11}: p50 {stats.p50 * 1e3:8.2f} ms   "
                f"p95 {stats.p95 * 1e3:8.2f} ms   p99 {stats.p99 * 1e3:8.2f} ms"
            )
        lines.append(
            f"throughput : {metrics.output_tokens_per_s:.0f} output tokens/s, "
            f"{metrics.requests_per_s:.1f} requests/s"
        )
        lines.append(
            f"goodput    : {metrics.goodput_requests_per_s:.1f} requests/s within SLO "
            f"(TTFT <= {self.slo.ttft_s:g}s, TPOT <= {self.slo.tpot_s:g}s; "
            f"{metrics.slo_attainment * 100:.1f}% attainment)"
        )
        if cache_stats:
            lines.append(
                f"plan cache : {cache_stats['size']}/{cache_stats['capacity']} plans, "
                f"{cache_stats['lookups']} lookups, "
                f"{cache_stats['hit_rate'] * 100:.1f}% hits, "
                f"{cache_stats['evictions']} evictions"
            )
        if self.baseline is not None:
            base = self.baseline.metrics(self.slo)
            lines.append(
                f"baseline   : e2e mean {base.e2e_latency.mean * 1e3:.2f} ms "
                f"vs {metrics.e2e_latency.mean * 1e3:.2f} ms overlapped "
                f"({_ratio(base.e2e_latency.mean, metrics.e2e_latency.mean)}), "
                f"TTFT p99 {_ratio(base.ttft.p99, metrics.ttft.p99)}, "
                f"makespan {_ratio(self.baseline.makespan_s, self.overlap.makespan_s)}"
            )
        faults = self.fault_summary()
        if faults is not None:
            recovery = faults["recovery_s"]
            lines.append(
                f"faults     : {faults['plan'] or 'policy-only'} -- "
                f"availability {faults['availability'] * 100:.1f}%, "
                f"{faults['crashes']} crashes ({faults['failovers']} failovers), "
                f"mean recovery {recovery['mean'] * 1e3:.0f} ms"
            )
            lines.append(
                f"resilience : retry amplification {faults['retry_amplification']:.2f}x, "
                f"{faults['dropped']} dropped / {faults['shed']} shed / "
                f"{faults['timed_out']} timed out, "
                f"{faults['wasted_iterations']} iterations wasted"
            )
            if "fault_free_goodput_rps" in faults:
                lines.append(
                    f"degraded   : goodput {faults['goodput_under_failure_rps']:.1f} req/s "
                    f"vs {faults['fault_free_goodput_rps']:.1f} fault-free "
                    f"({faults['goodput_ratio_vs_fault_free']:.3f}x)"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = {"meta": self.meta, "overlap": self.overlap.to_dict(self.slo)}
        if self.baseline is not None:
            payload["non-overlap"] = self.baseline.to_dict(self.slo)
        faults = self.fault_summary()
        if faults is not None:
            payload["faults"] = faults
        if self.fault_free is not None:
            payload["fault-free"] = self.fault_free.to_dict(self.slo)
        return self._with_observability(payload)
