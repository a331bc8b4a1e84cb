"""Serving-level metrics: latency percentiles, throughput, goodput.

The quantities the serving community reports:

* **TTFT** (time to first token): arrival to first output token -- dominated
  by queueing plus the prefill iterations;
* **TPOT** (time per output token): average gap between subsequent output
  tokens of one request -- dominated by the decode iteration latency;
* **throughput**: output tokens/s and requests/s over the makespan;
* **goodput**: the rate of requests that met the SLO (a TTFT bound and a TPOT
  bound), the metric that actually prices serving capacity.

Percentiles use the linear-interpolation definition of ``numpy.percentile``,
computed over the completed requests only; everything is a pure function of
the request records, so two simulations with identical records report
identical metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one completed request."""

    request_id: int
    arrival_time: float
    first_token_time: float
    finish_time: float
    prompt_tokens: int
    output_tokens: int

    @property
    def ttft(self) -> float:
        return self.first_token_time - self.arrival_time

    @property
    def e2e_latency(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean inter-token gap after the first token (0 for 1-token outputs)."""
        if self.output_tokens <= 1:
            return 0.0
        return (self.finish_time - self.first_token_time) / (self.output_tokens - 1)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "arrival_time": self.arrival_time,
            "first_token_time": self.first_token_time,
            "finish_time": self.finish_time,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
        }


#: Ways a request can leave the system without completing.
FAILURE_OUTCOMES = ("dropped", "shed", "timed-out")


@dataclass(frozen=True)
class FailureRecord:
    """One request that left the system without completing.

    ``time`` is when the terminal decision was made: the arrival attempt that
    exhausted its retries (``dropped``), the shed arrival (``shed``), or the
    deadline expiry (``timed-out``).  ``attempts`` counts arrival attempts
    including the original one.
    """

    request_id: int
    arrival_time: float
    outcome: str
    time: float
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.outcome not in FAILURE_OUTCOMES:
            raise ValueError(
                f"outcome must be one of {FAILURE_OUTCOMES}, got {self.outcome!r}"
            )

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "arrival_time": self.arrival_time,
            "outcome": self.outcome,
            "time": self.time,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of one latency series."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_values(cls, values: list[float]) -> "LatencyStats":
        if not values:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
        array = np.asarray(values, dtype=np.float64)
        return cls(
            count=len(values),
            mean=float(array.mean()),
            p50=float(np.percentile(array, 50)),
            p95=float(np.percentile(array, 95)),
            p99=float(np.percentile(array, 99)),
            max=float(array.max()),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass(frozen=True)
class SLO:
    """Per-request service-level objective (seconds)."""

    ttft_s: float = 1.0
    tpot_s: float = 0.1

    def __post_init__(self) -> None:
        for name in ("ttft_s", "tpot_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"SLO {name} must be finite and positive, got {value}")

    def met_by(self, record: RequestRecord) -> bool:
        return record.ttft <= self.ttft_s and record.tpot <= self.tpot_s


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate report of one serving run."""

    requests_completed: int
    makespan_s: float
    ttft: LatencyStats
    tpot: LatencyStats
    e2e_latency: LatencyStats
    output_tokens_per_s: float
    total_tokens_per_s: float
    requests_per_s: float
    slo_attainment: float
    goodput_requests_per_s: float

    def to_dict(self) -> dict:
        return {
            "requests_completed": self.requests_completed,
            "makespan_s": self.makespan_s,
            "ttft": self.ttft.to_dict(),
            "tpot": self.tpot.to_dict(),
            "e2e_latency": self.e2e_latency.to_dict(),
            "output_tokens_per_s": self.output_tokens_per_s,
            "total_tokens_per_s": self.total_tokens_per_s,
            "requests_per_s": self.requests_per_s,
            "slo_attainment": self.slo_attainment,
            "goodput_requests_per_s": self.goodput_requests_per_s,
        }


def compute_metrics(
    records: list[RequestRecord], makespan_s: float, slo: SLO | None = None
) -> ServingMetrics:
    """Aggregate request records into the serving report."""
    slo = slo or SLO()
    completed = len(records)
    span = max(makespan_s, 1e-12)
    output_tokens = sum(r.output_tokens for r in records)
    total_tokens = sum(r.prompt_tokens + r.output_tokens for r in records)
    attained = sum(1 for r in records if slo.met_by(r))
    return ServingMetrics(
        requests_completed=completed,
        makespan_s=makespan_s,
        ttft=LatencyStats.from_values([r.ttft for r in records]),
        tpot=LatencyStats.from_values([r.tpot for r in records if r.output_tokens > 1]),
        e2e_latency=LatencyStats.from_values([r.e2e_latency for r in records]),
        output_tokens_per_s=output_tokens / span,
        total_tokens_per_s=total_tokens / span,
        requests_per_s=completed / span,
        slo_attainment=attained / completed if completed else 0.0,
        goodput_requests_per_s=attained / span,
    )
