"""Fault plans: versioned, seeded schedules of injectable failure events.

A :class:`FaultPlan` is to chaos what :class:`~repro.serve.arrivals.
PoissonArrivals` is to traffic: a deterministic generator of a timeline.  It
is a versioned JSON document (the ``ParallelismPlan`` idiom from ``repro
plan``) listing :class:`FaultEvent` records, each one of four kinds:

* ``crash`` -- the replica goes down at ``start`` and restarts after
  ``duration`` seconds of recovery (warm-spare failover can shorten the
  effective outage, see :class:`~repro.faults.policy.ResiliencePolicy`);
* ``straggler`` -- compute runs ``factor``x slower during the window;
* ``degraded-link`` -- the interconnect bandwidth curve is scaled to
  ``factor`` of its nominal value during the window;
* ``drop`` -- request arrivals during the window are dropped with
  ``probability`` (per request *attempt*, so retries re-roll).

Everything is seeded and pure: :meth:`FaultPlan.generate` draws a chaos
timeline from ``numpy``'s seeded generator exactly once at construction, and
the same plan JSON replays bit-identically through the serving simulator
(asserted by ``verify_fault_replay`` and the fault test suite).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write_text, read_json

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "build_fault_preset",
    "fault_presets",
]

FAULT_KINDS = ("crash", "straggler", "degraded-link", "drop")

FAULT_PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``duration`` is the crash recovery delay for ``crash`` events and the
    window length for the other kinds.  ``factor`` is the slowdown multiplier
    (>= 1) for stragglers and the remaining bandwidth fraction (0 < f <= 1)
    for degraded links; ``probability`` only applies to ``drop`` events.
    Every number, and the window's end, must be finite.
    """

    kind: str
    start: float
    duration: float
    factor: float = 1.0
    probability: float = 0.0
    target: str = "replica-0"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        for name in ("start", "duration", "end", "factor", "probability"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"fault {name} must be finite, got {getattr(self, name)}")
        if self.start < 0:
            raise ValueError("fault start must be non-negative")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")
        if self.kind == "straggler" and self.factor < 1.0:
            raise ValueError("straggler factor is a slowdown multiplier and must be >= 1")
        if self.kind == "degraded-link" and not 0.0 < self.factor <= 1.0:
            raise ValueError("degraded-link factor is a bandwidth fraction in (0, 1]")
        if self.kind == "drop" and not 0.0 <= self.probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "factor": self.factor,
            "probability": self.probability,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        return cls(
            kind=payload["kind"],
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            factor=float(payload.get("factor", 1.0)),
            probability=float(payload.get("probability", 0.0)),
            target=payload.get("target", "replica-0"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded, serialisable schedule of fault events."""

    name: str = "faults"
    seed: int = 0
    events: tuple[FaultEvent, ...] = ()

    #: The JSON schema version :meth:`to_dict` writes (a class constant).
    version = FAULT_PLAN_VERSION

    def __post_init__(self) -> None:
        crashes = self.of_kind("crash")
        for earlier, later in zip(crashes, crashes[1:]):
            if later.start < earlier.end:
                raise ValueError(
                    f"crash windows overlap: [{earlier.start}, {earlier.end}) and "
                    f"[{later.start}, {later.end}) -- one replica cannot crash twice at once"
                )

    def of_kind(self, kind: str) -> tuple[FaultEvent, ...]:
        """Events of one kind, in start order."""
        return tuple(sorted((e for e in self.events if e.kind == kind), key=lambda e: e.start))

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        version = payload.get("version", FAULT_PLAN_VERSION)
        if version != FAULT_PLAN_VERSION:
            raise ValueError(
                f"unsupported fault plan version {version} (expected {FAULT_PLAN_VERSION})"
            )
        return cls(
            name=payload.get("name", "faults"),
            seed=int(payload.get("seed", 0)),
            events=tuple(FaultEvent.from_dict(item) for item in payload.get("events", [])),
        )

    def save(self, path: str | Path) -> Path:
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return read_json(path, cls.from_dict)

    # -- seeded generation -------------------------------------------------------

    @classmethod
    def generate(
        cls,
        horizon: float,
        seed: int = 0,
        name: str = "chaos",
        crash_rate: float = 0.0,
        recovery_s: float = 0.05,
        straggler_rate: float = 0.0,
        straggler_factor: float = 1.5,
        straggler_duration_s: float = 0.1,
        degraded_rate: float = 0.0,
        degraded_factor: float = 0.25,
        degraded_duration_s: float = 0.1,
        drop_probability: float = 0.0,
    ) -> "FaultPlan":
        """Draw a chaos timeline from Poisson event arrivals over ``horizon``.

        ``*_rate`` values are events per second (the arrivals idiom); a
        positive ``drop_probability`` adds one drop window covering the whole
        horizon.  The same arguments and seed produce the same plan.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []

        def poisson_times(rate: float) -> list[float]:
            times = []
            now = 0.0
            while rate > 0:
                now += float(rng.exponential(1.0 / rate))
                if now >= horizon:
                    break
                times.append(now)
            return times

        last_crash_end = 0.0
        for start in poisson_times(crash_rate):
            if start < last_crash_end:  # keep crash windows disjoint
                continue
            events.append(FaultEvent(kind="crash", start=start, duration=recovery_s))
            last_crash_end = start + recovery_s
        for start in poisson_times(straggler_rate):
            events.append(
                FaultEvent(
                    kind="straggler",
                    start=start,
                    duration=straggler_duration_s,
                    factor=straggler_factor,
                )
            )
        for start in poisson_times(degraded_rate):
            events.append(
                FaultEvent(
                    kind="degraded-link",
                    start=start,
                    duration=degraded_duration_s,
                    factor=degraded_factor,
                )
            )
        if drop_probability > 0:
            events.append(
                FaultEvent(
                    kind="drop", start=0.0, duration=horizon, probability=drop_probability
                )
            )
        return cls(name=name, seed=seed, events=tuple(events))


# -- presets ---------------------------------------------------------------------

#: name -> (description, builder(horizon, seed) -> FaultPlan).  Presets are
#: scale-free: event times are fractions of the traffic horizon, so the same
#: preset stresses a 0.4 s smoke burst and a 10-minute trace alike.
_PRESETS: dict[str, tuple[str, object]] = {}


def _preset(name: str, description: str):
    def register(builder):
        _PRESETS[name] = (description, builder)
        return builder

    return register


@_preset("replica-crash", "one crash at 35% of the horizon, recovery for 25% of it")
def _replica_crash(horizon: float, seed: int) -> FaultPlan:
    return FaultPlan(
        name="replica-crash",
        seed=seed,
        events=(
            FaultEvent(kind="crash", start=0.35 * horizon, duration=0.25 * horizon),
        ),
    )


@_preset("double-crash", "two crashes (25% and 65% of the horizon); pairs with --warm-spares")
def _double_crash(horizon: float, seed: int) -> FaultPlan:
    return FaultPlan(
        name="double-crash",
        seed=seed,
        events=(
            FaultEvent(kind="crash", start=0.25 * horizon, duration=0.20 * horizon),
            FaultEvent(kind="crash", start=0.65 * horizon, duration=0.20 * horizon),
        ),
    )


@_preset("straggler", "compute runs 1.75x slower across the middle 60% of the horizon")
def _straggler(horizon: float, seed: int) -> FaultPlan:
    return FaultPlan(
        name="straggler",
        seed=seed,
        events=(
            FaultEvent(
                kind="straggler", start=0.2 * horizon, duration=0.6 * horizon, factor=1.75
            ),
        ),
    )


@_preset("degraded-link", "interconnect at 25% bandwidth across the middle 60% of the horizon")
def _degraded_link(horizon: float, seed: int) -> FaultPlan:
    return FaultPlan(
        name="degraded-link",
        seed=seed,
        events=(
            FaultEvent(
                kind="degraded-link", start=0.2 * horizon, duration=0.6 * horizon, factor=0.25
            ),
        ),
    )


@_preset("drop-storm", "35% of arrival attempts dropped over the first 75% of the horizon")
def _drop_storm(horizon: float, seed: int) -> FaultPlan:
    return FaultPlan(
        name="drop-storm",
        seed=seed,
        events=(
            FaultEvent(
                kind="drop", start=0.0, duration=0.75 * horizon, probability=0.35
            ),
        ),
    )


@_preset("chaos", "seeded Poisson mix of crashes, stragglers, degraded links and drops")
def _chaos(horizon: float, seed: int) -> FaultPlan:
    return FaultPlan.generate(
        horizon=horizon,
        seed=seed,
        name="chaos",
        crash_rate=1.5 / horizon,
        recovery_s=0.1 * horizon,
        straggler_rate=1.0 / horizon,
        straggler_factor=1.5,
        straggler_duration_s=0.2 * horizon,
        degraded_rate=1.0 / horizon,
        degraded_factor=0.4,
        degraded_duration_s=0.2 * horizon,
        drop_probability=0.1,
    )


def fault_presets() -> dict[str, str]:
    """Known preset names and their one-line descriptions."""
    return {name: description for name, (description, _) in sorted(_PRESETS.items())}


def build_fault_preset(name: str, horizon: float, seed: int = 0) -> FaultPlan:
    """Instantiate a named preset over a concrete traffic horizon (seconds)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    try:
        _, builder = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault preset {name!r}; known: {sorted(_PRESETS)}"
        ) from None
    return builder(horizon, seed)
