"""Deterministic fault injection and resilience policies.

The package models *what breaks* (:class:`FaultPlan` -- crashes, stragglers,
degraded links, dropped requests) separately from *what the system does about
it* (:class:`ResiliencePolicy` -- retries with backoff, deadlines, admission
control, warm spares).  :class:`FaultInjector` compiles both into the
queries the serving simulator asks at runtime, and everything is seeded so a
chaos run replays bit-identically (:func:`verify_fault_replay`).
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, build_fault_preset, fault_presets
from repro.faults.policy import ResiliencePolicy, RetryPolicy, parse_retry_policy
from repro.faults.verify import verify_fault_replay

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "ResiliencePolicy",
    "RetryPolicy",
    "build_fault_preset",
    "fault_presets",
    "parse_retry_policy",
    "verify_fault_replay",
]
