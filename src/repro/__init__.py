"""repro — reproduction of "Impact of IT Monoculture on Behavioral End Host Intrusion Detection".

The package is organised as:

* :mod:`repro.core` — configuration policies (homogeneous / full-diversity /
  partial-diversity), threshold heuristics, multi-feature fusion and the
  evaluation harness (the paper's contribution), which scores every host's
  per-bin detector as one array pass over the population.
* :mod:`repro.stats` — empirical distributions and percentiles, tail
  analysis, summary statistics, k-means.
* :mod:`repro.traces` — packet/flow model, TCP connection assembly, protocol
  classification, capture sessions, serialization.
* :mod:`repro.features` — the six Table-1 features and their extraction into
  binned time series.
* :mod:`repro.workload` — the synthetic 350-host enterprise population that
  substitutes for the paper's proprietary traces.
* :mod:`repro.engine` — the population engine: vectorised generation fanned
  out across worker processes, with an on-disk population cache.
* :mod:`repro.attacks` — naive / mimicry attackers, scan / DDoS / spam
  primitives, the Storm zombie model, botnet campaigns and the attack
  builders the evaluation harness injects into a whole population at once.
* :mod:`repro.experiments` — one driver per paper figure/table.
* :mod:`repro.temporal` — the threshold lifecycle: retrain schedules,
  population drift statistics, timeline evaluation and staleness reports.
* :mod:`repro.sweeps` — declarative scenario/sweep specs, the parallel sweep
  runner, the JSONL result store and the ``repro`` CLI.

Quickstart::

    from repro import quick_population, PolicyComparison, Feature
    from repro.core.experiment import ExperimentContext

    population = quick_population(num_hosts=60, num_weeks=2, seed=7)
    comparison = PolicyComparison(ExperimentContext(population))
    results = comparison.run(Feature.TCP_CONNECTIONS)
    for name, evaluation in results.items():
        print(name, round(evaluation.mean_utility(), 4))
"""

from typing import Optional

from repro.core.experiment import ExperimentContext, PolicyComparison
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import (
    FMeasureHeuristic,
    MeanStdHeuristic,
    PercentileHeuristic,
    UtilityHeuristic,
)
from repro.engine import EngineStats, GenerationReport, PopulationCache, PopulationEngine
from repro.features.definitions import Feature, PAPER_FEATURES
from repro.sweeps import ResultStore, ScenarioSpec, SweepRunner, SweepSpec
from repro.temporal import RetrainSchedule, evaluate_timeline, staleness_report
from repro.workload.drift import DriftComponent, DriftModel
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation, generate_enterprise

__version__ = "1.0.0"

__all__ = [
    "Feature",
    "PAPER_FEATURES",
    "EnterpriseConfig",
    "EnterprisePopulation",
    "generate_enterprise",
    "quick_population",
    "PopulationEngine",
    "PopulationCache",
    "GenerationReport",
    "EngineStats",
    "ScenarioSpec",
    "SweepSpec",
    "SweepRunner",
    "ResultStore",
    "RetrainSchedule",
    "evaluate_timeline",
    "staleness_report",
    "DriftModel",
    "DriftComponent",
    "ConfigurationPolicy",
    "HomogeneousPolicy",
    "FullDiversityPolicy",
    "PartialDiversityPolicy",
    "PercentileHeuristic",
    "MeanStdHeuristic",
    "UtilityHeuristic",
    "FMeasureHeuristic",
    "ExperimentContext",
    "PolicyComparison",
    "__version__",
]


def quick_population(
    num_hosts: int = 60,
    num_weeks: int = 2,
    seed: int = 7,
    engine: Optional[PopulationEngine] = None,
) -> EnterprisePopulation:
    """Generate a small population suitable for examples and quick experiments.

    The defaults (60 hosts, 2 weeks) run in a few seconds while still showing
    the qualitative results; pass ``num_hosts=350, num_weeks=5`` to match the
    paper's scale, and an ``engine`` to generate in parallel or reuse the
    on-disk population cache.
    """
    config = EnterpriseConfig(num_hosts=num_hosts, num_weeks=num_weeks, seed=seed)
    return generate_enterprise(config, engine=engine)
