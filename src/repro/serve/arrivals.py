"""Deterministic request-traffic generators for the serving simulator.

Online serving exercises the overlap operator under *dynamic* shapes: requests
arrive over time, each with its own prompt and output length, and the
continuous-batching scheduler turns whatever is active into per-iteration GEMM
shapes.  This module produces that traffic reproducibly:

* :class:`PoissonArrivals` draws exponential inter-arrival gaps at a target
  request rate, with prompt/output lengths sampled from a named
  :class:`LengthDistribution` (log-normal, clamped to the distribution's
  range) -- the classic open-loop serving benchmark setup;
* :class:`TraceArrivals` replays an explicit request trace (records or a JSONL
  file), for workloads measured on a real frontend.

Everything is seeded: the same generator parameters and seed produce the same
request list on every run, which is what makes end-to-end serving metrics
reproducible down to the last digit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.atomic import malformed_artifact


@dataclass(frozen=True)
class Request:
    """One inference request as seen by the serving frontend."""

    request_id: int
    arrival_time: float
    prompt_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arrival_time) and self.arrival_time >= 0):
            raise ValueError(
                f"arrival_time must be finite and non-negative, got {self.arrival_time}"
            )
        if self.prompt_tokens < 1 or self.output_tokens < 1:
            raise ValueError("prompt_tokens and output_tokens must be >= 1")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens


@dataclass(frozen=True)
class LengthDistribution:
    """Log-normal prompt/output length model, clamped to a named range.

    ``prompt_median`` / ``output_median`` are the medians of the log-normal
    draws (the exp of the underlying normal's mean); ``sigma`` is the shared
    log-space spread.  Samples are rounded to integers and clamped, so the
    extremes of the range stay reachable but rare.
    """

    name: str
    prompt_median: int
    prompt_range: tuple[int, int]
    output_median: int
    output_range: tuple[int, int]
    sigma: float = 0.6

    def __post_init__(self) -> None:
        for low, high in (self.prompt_range, self.output_range):
            if not 1 <= low <= high:
                raise ValueError("length ranges must satisfy 1 <= low <= high")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def _draw(self, rng: np.random.Generator, median: int, bounds: tuple[int, int]) -> int:
        value = rng.lognormal(mean=float(np.log(median)), sigma=self.sigma)
        return min(max(round(value), bounds[0]), bounds[1])

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        """One (prompt_tokens, output_tokens) draw."""
        prompt = self._draw(rng, self.prompt_median, self.prompt_range)
        output = self._draw(rng, self.output_median, self.output_range)
        return prompt, output


#: Named traffic mixes.  Medians/ranges loosely follow the public serving
#: benchmarks: chat is short-prompt/medium-output, summarization is
#: long-prompt/short-output, code completion sits in between, and ``fixed``
#: removes length variance entirely (useful for tests and ablations).
_DISTRIBUTIONS: dict[str, LengthDistribution] = {
    dist.name: dist
    for dist in (
        LengthDistribution(
            name="chat",
            prompt_median=128, prompt_range=(16, 1024),
            output_median=128, output_range=(16, 512),
        ),
        LengthDistribution(
            name="summarize",
            prompt_median=1024, prompt_range=(256, 8192),
            output_median=64, output_range=(16, 256),
        ),
        LengthDistribution(
            name="code",
            prompt_median=512, prompt_range=(64, 4096),
            output_median=192, output_range=(32, 1024),
        ),
        LengthDistribution(
            name="fixed",
            prompt_median=256, prompt_range=(256, 256),
            output_median=64, output_range=(64, 64),
            sigma=0.0,
        ),
    )
}


def length_distributions() -> dict[str, LengthDistribution]:
    """The named length-distribution registry."""
    return dict(_DISTRIBUTIONS)


def distribution_by_name(name: str) -> LengthDistribution:
    try:
        return _DISTRIBUTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown length distribution {name!r}; known: {sorted(_DISTRIBUTIONS)}"
        ) from None


@dataclass(frozen=True)
class PoissonArrivals:
    """Open-loop Poisson traffic at a target request rate.

    Inter-arrival gaps are exponential with mean ``1 / rate_rps``.  Generation
    stops after ``num_requests`` requests, or when the next arrival would fall
    past ``duration_s`` -- whichever limit is hit first (at least one limit
    must be set).
    """

    rate_rps: float
    distribution: LengthDistribution
    seed: int = 0
    num_requests: int | None = None
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_rps) and self.rate_rps > 0):
            raise ValueError(f"rate_rps must be finite and positive, got {self.rate_rps}")
        if self.num_requests is None and self.duration_s is None:
            raise ValueError("set num_requests and/or duration_s to bound the traffic")
        if self.num_requests is not None and self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.duration_s is not None and not (
            math.isfinite(self.duration_s) and self.duration_s > 0
        ):
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s}")

    def generate(self) -> list[Request]:
        """The deterministic request list for this seed."""
        rng = np.random.default_rng(self.seed)
        requests: list[Request] = []
        now = 0.0
        while self.num_requests is None or len(requests) < self.num_requests:
            now += float(rng.exponential(1.0 / self.rate_rps))
            if self.duration_s is not None and now > self.duration_s:
                break
            prompt, output = self.distribution.sample(rng)
            requests.append(
                Request(
                    request_id=len(requests),
                    arrival_time=now,
                    prompt_tokens=prompt,
                    output_tokens=output,
                )
            )
        return requests


@dataclass(frozen=True)
class TraceArrivals:
    """Replay of an explicit request trace.

    Each record needs ``arrival_time``, ``prompt_tokens`` and
    ``output_tokens``; request IDs are reassigned in arrival order so traces
    do not have to carry them.
    """

    records: tuple[tuple[float, int, int], ...]

    def generate(self) -> list[Request]:
        ordered = sorted(self.records, key=lambda r: r[0])
        return [
            Request(
                request_id=index,
                arrival_time=float(arrival),
                prompt_tokens=int(prompt),
                output_tokens=int(output),
            )
            for index, (arrival, prompt, output) in enumerate(ordered)
        ]

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "TraceArrivals":
        return cls(
            records=tuple(
                (float(r["arrival_time"]), int(r["prompt_tokens"]), int(r["output_tokens"]))
                for r in records
            )
        )

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TraceArrivals":
        """Load a trace from a JSONL file (one request object per line).

        A line that is not JSON, or a record of the wrong structure, raises a
        :class:`ValueError` naming the file.
        """
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        with malformed_artifact(path):
            return cls.from_records(json.loads(line) for line in lines if line.strip())
