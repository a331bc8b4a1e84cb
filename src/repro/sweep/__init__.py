"""Parallel scenario sweeps: declarative matrices, fan-out execution, storage.

A sweep turns the one-off benchmark scripts into a reusable subsystem:

* :mod:`repro.sweep.matrix` -- :class:`ScenarioMatrix`, the declarative
  workload x shape x platform x settings grid, expanded into deterministic
  :class:`Scenario` jobs;
* :mod:`repro.sweep.presets` -- named matrices drawn from the workload
  models (LLM inference/training, MoE, text-to-video, Table 3 suites);
* :mod:`repro.sweep.store` -- the JSONL :class:`ResultStore` with
  resume-on-rerun;
* :mod:`repro.sweep.runner` -- :class:`SweepRunner`, fanning jobs over
  worker processes with a shared :class:`~repro.core.tuner.GemmShapeCache`
  warm start;
* :mod:`repro.sweep.aggregate` -- per-scenario and per-group speedup tables
  built on :mod:`repro.analysis`.
"""

from repro.sweep.aggregate import group_summary_table, scenario_table
from repro.sweep.matrix import Scenario, ScenarioMatrix
from repro.sweep.presets import matrix_from_preset, sweep_presets
from repro.sweep.runner import SweepRunner
from repro.sweep.store import ResultStore

__all__ = [
    "Scenario",
    "ScenarioMatrix",
    "matrix_from_preset",
    "sweep_presets",
    "ResultStore",
    "SweepRunner",
    "scenario_table",
    "group_summary_table",
]
