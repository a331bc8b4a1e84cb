"""Turn stored sweep records into the tables the paper-style analysis emits.

Per-group statistics over the scenario axes, rendered with the shared
:mod:`repro.analysis.reporting` formatters.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.analysis.reporting import format_table


def _ok(records: Iterable[dict]) -> list[dict]:
    return [r for r in records if r.get("status") == "ok"]


def summarize_by_group(
    records: Iterable[dict], keys: tuple[str, ...] = ("workload", "collective", "topology")
) -> dict[tuple, dict[str, float]]:
    """Per-group speedup statistics over the scenario axes named by ``keys``."""
    grouped: dict[tuple, list[dict]] = {}
    for record in _ok(records):
        scenario = record["scenario"]
        grouped.setdefault(tuple(scenario[k] for k in keys), []).append(record)
    summary = {}
    for group, members in grouped.items():
        speedups = np.asarray([r["speedup"] for r in members])
        ratios = np.asarray([r["ratio_of_theoretical"] for r in members])
        summary[group] = {
            "count": int(speedups.size),
            "mean_speedup": float(speedups.mean()),
            "min_speedup": float(speedups.min()),
            "max_speedup": float(speedups.max()),
            "mean_ratio_of_theoretical": float(np.minimum(ratios, 1.0).mean()),
            "tuned": int(sum(1 for r in members if r.get("tuned"))),
        }
    return summary


def scenario_table(records: Iterable[dict], title: str | None = None) -> str:
    """Per-scenario speedup table (one row per completed job)."""
    rows = []
    for record in _ok(records):
        s = record["scenario"]
        rows.append(
            [
                record["job_id"],
                f"{s['m']}x{s['n']}x{s['k']}",
                s["collective"],
                f"{s['gpus']}x{s['device']}",
                "hit" if record.get("cache_hit") else "tune",
                record["speedup"],
                min(1.0, record["ratio_of_theoretical"]),
            ]
        )
    return format_table(
        ["job", "shape", "collective", "platform", "cache", "speedup", "of-theory"],
        rows,
        title=title,
    )


def group_summary_table(
    records: Iterable[dict],
    keys: tuple[str, ...] = ("workload", "collective", "topology"),
    title: str | None = None,
) -> str:
    """Aggregated per-group table (the Fig. 10-style rollup of a sweep)."""
    summary = summarize_by_group(records, keys)
    rows = [
        [
            "/".join(str(part) for part in group),
            stats["count"],
            stats["mean_speedup"],
            stats["min_speedup"],
            stats["max_speedup"],
            stats["mean_ratio_of_theoretical"],
        ]
        for group, stats in sorted(summary.items())
    ]
    return format_table(
        ["group", "n", "mean", "min", "max", "of-theory"], rows, title=title
    )
