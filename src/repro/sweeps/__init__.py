"""Declarative scenario sweeps: specs, a parallel runner, a result store.

The sweeps subsystem turns the repo from "reproduce the paper's figures"
into "run arbitrary detection campaigns at scale":

* :mod:`repro.sweeps.spec` — :class:`ScenarioSpec` (population + policy +
  attack + evaluation as plain data) and :class:`SweepSpec` (named axes over
  any scenario field with grid/zip expansion), TOML/dict round-trippable.
* :mod:`repro.sweeps.runner` — :class:`SweepRunner` expands a sweep,
  generates each distinct population exactly once through the
  :class:`~repro.engine.PopulationEngine` cache, fans evaluation across a
  process pool and streams per-scenario progress.
* :mod:`repro.sweeps.results` — :class:`ResultStore`, an append-only JSONL
  store with schema versioning plus aggregation/pivot helpers.
* :mod:`repro.sweeps.cli` — the ``repro`` console script
  (``repro sweep run/report/list``, ``repro experiments``).
* :mod:`repro.sweeps.catalog` — the packaged scenario library
  (policy grid, attack intensity, enterprise scaling, storm replay).
"""

from repro.core.sampling import SampleSpec
from repro.sweeps.catalog import builtin_sweeps, load_builtin
from repro.sweeps.results import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    ScenarioRecord,
    aggregate,
    comparison_table,
    pivot,
)
from repro.sweeps.runner import (
    ScenarioResult,
    SweepRunner,
    SweepRunResult,
    run_scenario,
)
from repro.sweeps.spec import (
    ATTACK_KINDS,
    C2_KINDS,
    HEURISTIC_KINDS,
    OPTIMIZER_KINDS,
    POLICY_KINDS,
    AttackSpec,
    DriftSpec,
    EvaluationSpec,
    OptimizerSpec,
    PolicySpec,
    PopulationSpec,
    ScenarioSpec,
    ScheduleSpec,
    SweepSpec,
    derive_scenario_seed,
    scenario_spec_hash,
)

__all__ = [
    "ScenarioSpec",
    "SweepSpec",
    "PopulationSpec",
    "PolicySpec",
    "AttackSpec",
    "EvaluationSpec",
    "SweepRunner",
    "SweepRunResult",
    "ScenarioResult",
    "run_scenario",
    "ResultStore",
    "ScenarioRecord",
    "aggregate",
    "pivot",
    "comparison_table",
    "RESULT_SCHEMA_VERSION",
    "builtin_sweeps",
    "load_builtin",
    "derive_scenario_seed",
    "scenario_spec_hash",
    "OptimizerSpec",
    "DriftSpec",
    "ScheduleSpec",
    "SampleSpec",
    "POLICY_KINDS",
    "HEURISTIC_KINDS",
    "ATTACK_KINDS",
    "C2_KINDS",
    "OPTIMIZER_KINDS",
]
