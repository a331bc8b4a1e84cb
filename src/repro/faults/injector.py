"""Compile a :class:`~repro.faults.plan.FaultPlan` into simulator queries.

The :class:`FaultInjector` turns the declarative plan into the four questions
the serving loop asks while it runs:

* ``is_down(t)`` / ``next_up(t)`` -- is the replica crashed right now, and
  when does it come back?  Warm spares shrink the first ``warm_spares``
  outages to the failover delay.
* ``straggler_finish(start, work)`` -- when does an iteration of ``work``
  fault-free seconds actually finish, given straggler windows?
* ``comm_factor_at(t)`` -- the interconnect bandwidth fraction in effect when
  an iteration starts (overlapping degradations compose by taking the worst).
* ``drops(request_id, attempt, t)`` -- is this arrival attempt dropped?
  Decisions come from a hash-seeded generator keyed on identity, so they are
  independent of event ordering and replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.faults.timeline import SpeedTimeline, SpeedWindow

__all__ = ["DowntimeWindow", "FaultInjector"]

# Salt separating the drop-decision stream from retry-jitter draws that share
# the same (seed, request_id, attempt) key space.
_DROP_STREAM = 7919


@dataclass(frozen=True)
class DowntimeWindow:
    """One effective outage after failover policy is applied."""

    start: float
    end: float
    failover: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class FaultInjector:
    """Deterministic runtime view of a fault plan under a resilience policy."""

    def __init__(
        self,
        plan: FaultPlan,
        policy: ResiliencePolicy | None = None,
    ) -> None:
        self.plan = plan
        self.policy = policy or ResiliencePolicy()

        # Crashes: the first `warm_spares` outages are covered by a spare and
        # cost only the failover delay; the rest ride out the full recovery.
        self.downtime: list[DowntimeWindow] = []
        for index, event in enumerate(plan.of_kind("crash")):
            covered = index < self.policy.warm_spares
            duration = self.policy.failover_delay_s if covered else event.duration
            if duration > 0:
                self.downtime.append(
                    DowntimeWindow(event.start, event.start + duration, failover=covered)
                )
        self.crashes = len(plan.of_kind("crash"))
        self.failovers = sum(1 for w in self.downtime if w.failover)
        self.recovery_times = [w.duration for w in self.downtime]

        # Compute speed: stragglers run at 1/factor.  Outages are only the
        # crash/recover events above: no iteration starts while the replica is
        # down, and a crash aborts the iteration in flight.
        self.compute = SpeedTimeline([
            SpeedWindow(e.start, e.end, 1.0 / e.factor)
            for e in plan.of_kind("straggler")
            if e.factor != 1.0
        ])

        self._degraded = plan.of_kind("degraded-link")
        self._drops = plan.of_kind("drop")

    # -- replica state -----------------------------------------------------------

    def is_down(self, time: float) -> bool:
        return any(w.start <= time < w.end for w in self.downtime)

    def next_up(self, time: float) -> float:
        """Earliest instant >= ``time`` at which the replica is up."""
        now = time
        for window in self.downtime:  # start-ordered and disjoint
            if window.start <= now < window.end:
                now = window.end
        return now

    def crash_times(self) -> list[float]:
        return [w.start for w in self.downtime]

    # -- speed and bandwidth -----------------------------------------------------

    def straggler_finish(self, start: float, work: float) -> float:
        """Finish time for ``work`` fault-free seconds started at ``start``."""
        return self.compute.finish_time(start, work)

    def comm_factor_at(self, time: float) -> float:
        """Bandwidth fraction in effect at ``time`` (worst overlapping window)."""
        factor = 1.0
        for event in self._degraded:
            if event.start <= time < event.end:
                factor = min(factor, event.factor)
        return factor

    # -- request drops -----------------------------------------------------------

    def drop_probability_at(self, time: float) -> float:
        """Combined drop probability at ``time`` (independent windows)."""
        keep = 1.0
        for event in self._drops:
            if event.start <= time < event.end:
                keep *= 1.0 - event.probability
        return 1.0 - keep

    def drops(self, request_id: int, attempt: int, time: float) -> bool:
        """Whether arrival ``attempt`` of ``request_id`` at ``time`` is dropped."""
        probability = self.drop_probability_at(time)
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        unit = float(
            np.random.default_rng(
                [self.plan.seed, _DROP_STREAM, request_id, attempt]
            ).random()
        )
        return unit < probability

    # -- summary -----------------------------------------------------------------

    def availability(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the replica is up."""
        if horizon <= 0:
            return 1.0
        down = sum(
            max(0.0, min(w.end, horizon) - max(w.start, 0.0)) for w in self.downtime
        )
        return max(0.0, 1.0 - down / horizon)
