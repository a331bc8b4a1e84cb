"""Bit-identical replay verification for faulted serving runs.

``verify_fault_replay`` is the chaos twin of ``repro.plan.verify_replay``: it
runs the same traffic through the same fault plan twice -- fresh simulator,
fresh plan cache each time -- and asserts the serialized results are
*byte-identical*, not merely numerically close.  A fault layer that only
replays approximately is useless for regression testing, so this is the
check CI and the fault test suite lean on.

Imports of ``repro.serve`` live inside the function: serve imports the fault
package at module level, so the reverse edge must stay lazy.
"""

from __future__ import annotations

import json

from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy

__all__ = ["verify_fault_replay"]


def verify_fault_replay(
    config,
    requests,
    plan: FaultPlan,
    policy: ResiliencePolicy | None = None,
) -> dict:
    """Run the faulted overlap-mode scenario twice and compare serialized results.

    Returns ``{"checks": {...}, "matches": bool}`` in the ``verify_replay``
    idiom: each check maps to a bool, and ``matches`` is their conjunction.
    """
    from repro.faults.injector import FaultInjector
    from repro.plans.cache import PlanCache
    from repro.serve.simulator import ServingSimulator

    def run_once() -> dict:
        simulator = ServingSimulator(config, plan_cache=PlanCache(), faults=FaultInjector(plan, policy))
        return simulator.run(list(requests)).to_dict()

    first = run_once()
    second = run_once()
    first_json = json.dumps(first, sort_keys=True)
    second_json = json.dumps(second, sort_keys=True)
    checks = {
        "payload_bytes_identical": first_json == second_json,
        "makespan_identical": first["makespan_s"] == second["makespan_s"],
        "iterations_identical": first["iterations"] == second["iterations"],
    }
    return {"checks": checks, "matches": all(checks.values())}
