"""Degraded-mode metrics: the report axis faults add next to TTFT/TPOT.

:func:`build_fault_stats` condenses an injector plus the serving loop's
failure accounting into one JSON-ready dict: availability over the run,
recovery-time stats, retry amplification (attempts per arriving request) and
the waste the crash windows caused.  Goodput-under-failure vs the fault-free
baseline is computed one level up, in :class:`repro.serve.report.ServeReport`,
where both arms are in hand.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["build_fault_stats"]


def build_fault_stats(
    injector,
    makespan_s: float,
    num_requests: int,
    attempts: int,
    retries: int,
    failures: Iterable,
    wasted_iterations: int,
    wasted_tokens: int,
) -> dict:
    """Summarise one faulted serving run.

    ``failures`` lists the run's
    :class:`~repro.serve.metrics.FailureRecord` objects; ``attempts`` counts
    every arrival attempt including retries, so ``attempts / num_requests`` is
    the retry amplification.
    """
    outcomes: dict[str, int] = {"dropped": 0, "shed": 0, "timed-out": 0}
    for record in failures:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1

    recovery = injector.recovery_times if injector is not None else []
    stats = {
        "plan": injector.plan.name if injector is not None else None,
        "seed": injector.plan.seed if injector is not None else None,
        "availability": injector.availability(makespan_s) if injector is not None else 1.0,
        "crashes": injector.crashes if injector is not None else 0,
        "failovers": injector.failovers if injector is not None else 0,
        "recovery_s": {
            "count": len(recovery),
            "mean": sum(recovery) / len(recovery) if recovery else 0.0,
            "max": max(recovery) if recovery else 0.0,
        },
        "attempts": attempts,
        "retries": retries,
        "retry_amplification": attempts / num_requests if num_requests else 1.0,
        "dropped": outcomes["dropped"],
        "shed": outcomes["shed"],
        "timed_out": outcomes["timed-out"],
        "wasted_iterations": wasted_iterations,
        "wasted_tokens": wasted_tokens,
    }
    return stats
