"""Resilience policies the serving loop applies under injected faults.

Two layers:

* :class:`RetryPolicy` -- exponential backoff with deterministic jitter for
  dropped requests.  Jitter is drawn from a hash-seeded generator keyed on
  ``(seed, request_id, attempt)`` so the delay for a given retry does not
  depend on the order events fire in -- the same trick the simulator uses for
  drop decisions.
* :class:`ResiliencePolicy` -- the full knob set: retry policy, per-request
  deadline, admission limit (load shedding) and warm-spare failover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ResiliencePolicy", "RetryPolicy", "parse_retry_policy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, per-attempt jitter."""

    max_retries: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0):
            raise ValueError(f"backoff_s must be finite and non-negative, got {self.backoff_s}")
        if not (math.isfinite(self.multiplier) and self.multiplier >= 1.0):
            raise ValueError(f"multiplier must be finite and >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, request_id: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of ``request_id``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_s * self.multiplier ** (attempt - 1)
        if self.jitter == 0.0:
            return base
        # Order-independent draw: keyed on identity, not on call sequence.
        unit = float(np.random.default_rng([self.seed, request_id, attempt]).random())
        return base * (1.0 + self.jitter * unit)

    def to_dict(self) -> dict:
        return {
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "multiplier": self.multiplier,
            "jitter": self.jitter,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ResiliencePolicy:
    """What the serving loop does about faults.

    ``deadline_s`` is a per-request wall-clock budget measured from arrival;
    a request that cannot finish inside it is abandoned as ``timed-out``.
    ``admission_limit`` sheds new arrivals once waiting + running requests
    reach the limit.  ``warm_spares`` covers that many crashes with a spare
    replica, shrinking each covered outage to ``failover_delay_s``.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline_s: float | None = None
    admission_limit: int | None = None
    warm_spares: int = 0
    failover_delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not (
            math.isfinite(self.deadline_s) and self.deadline_s > 0
        ):
            raise ValueError(
                f"deadline_s must be finite and positive when set, got {self.deadline_s}"
            )
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ValueError("admission_limit must be >= 1 when set")
        if self.warm_spares < 0:
            raise ValueError("warm_spares must be non-negative")
        if not (math.isfinite(self.failover_delay_s) and self.failover_delay_s >= 0):
            raise ValueError(
                f"failover_delay_s must be finite and non-negative, got {self.failover_delay_s}"
            )

    @property
    def engaged(self) -> bool:
        """True when the policy changes behaviour even without a fault plan."""
        return self.deadline_s is not None or self.admission_limit is not None

    def to_dict(self) -> dict:
        return {
            "retry": self.retry.to_dict(),
            "deadline_s": self.deadline_s,
            "admission_limit": self.admission_limit,
            "warm_spares": self.warm_spares,
            "failover_delay_s": self.failover_delay_s,
        }


def parse_retry_policy(spec: str, seed: int = 0) -> RetryPolicy:
    """Parse a CLI retry spec like ``retries=3,backoff=0.05,multiplier=2,jitter=0.25``."""
    keys = {
        "retries": ("max_retries", int),
        "backoff": ("backoff_s", float),
        "multiplier": ("multiplier", float),
        "jitter": ("jitter", float),
    }
    kwargs: dict = {"seed": seed}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad retry spec item {part!r}; expected key=value with keys {sorted(keys)}"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"unknown retry spec key {key!r}; known: {sorted(keys)}")
        name, cast = keys[key]
        kwargs[name] = cast(value.strip())
    return RetryPolicy(**kwargs)
