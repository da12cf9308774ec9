"""Experiment orchestration.

Thin layer the figure/table drivers and examples build on: a shared
:class:`ExperimentContext` (the generated population plus the default
protocol) and :class:`PolicyComparison`, which evaluates the paper's three
policies side by side under identical conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.attacks.base import AttackBuilder
from repro.core.evaluation import (
    AlarmColumns,
    DetectionProtocol,
    EvaluationMemo,
    PolicyEvaluation,
    evaluate_policy,
)
from repro.core.fusion import FusionRule
from repro.core.metrics import f_measure_from_rate_arrays
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.sampling import SampleSpec, bootstrap_mean_interval, sample_host_ids
from repro.core.thresholds import ThresholdHeuristic
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix
from repro.utils.records import plain
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation

@dataclass
class ExperimentContext:
    """Everything an experiment driver needs: the population and defaults."""

    population: EnterprisePopulation
    train_week: int = 0
    test_week: int = 1

    def __post_init__(self) -> None:
        weeks = self.population.config.num_weeks
        require(self.train_week < weeks and self.test_week < weeks, "train/test weeks out of range")

    @property
    def matrices(self) -> Mapping[int, FeatureMatrix]:
        """Per-host benign feature matrices."""
        return self.population.matrices()

    def protocol(self, feature: Feature, utility_weight: float = 0.4) -> DetectionProtocol:
        """Build the default single-feature protocol for ``feature``."""
        return DetectionProtocol(
            features=(feature,),
            train_week=self.train_week,
            test_week=self.test_week,
            utility_weight=utility_weight,
        )

    def detection_protocol(
        self,
        features: Iterable[Feature],
        fusion: Optional[FusionRule] = None,
        utility_weight: float = 0.4,
    ) -> DetectionProtocol:
        """Build a multi-feature protocol with ``fusion`` (default ``any``)."""
        return DetectionProtocol(
            features=tuple(features),
            fusion=fusion if fusion is not None else FusionRule.any_(),
            train_week=self.train_week,
            test_week=self.test_week,
            utility_weight=utility_weight,
        )


def standard_policies(
    heuristic: Optional[ThresholdHeuristic] = None,
    partial_groups: int = 8,
) -> List[ConfigurationPolicy]:
    """The paper's three policies, sharing one threshold heuristic."""
    return [
        HomogeneousPolicy(heuristic),
        FullDiversityPolicy(heuristic),
        PartialDiversityPolicy(heuristic, num_groups=partial_groups),
    ]


@dataclass(frozen=True)
class ScenarioOutcome:
    """Scalar summary of one policy/attack/population evaluation.

    This is the record shape the sweep machinery stores and compares: every
    field is a plain number, string, or (for ``per_feature``) a flat mapping
    of numbers, so outcomes serialise to JSON and aggregate across
    arbitrarily many scenarios.

    The headline metrics (``mean_utility`` ... ``distinct_thresholds``)
    describe the *fused* alarm; ``per_feature`` carries the same aggregates
    for each individual feature's detector.  For a single-feature scenario
    the fused metrics equal that feature's metrics exactly (the legacy
    shape).

    ``optimizer``/``objective_value``/``optimizer_iterations`` record how the
    thresholds were *selected*: the optimizer's name (``"none"`` for plain
    heuristic selection), the population-mean fused objective it achieved on
    the training data, and its total convergence iterations.

    The temporal fields record *when* thresholds were selected.  One-shot
    evaluations keep the defaults (``schedule="one-shot"``, everything else
    empty).  Timeline evaluations (see :mod:`repro.temporal`) aggregate the
    headline metrics over every deployed week (rates and utilities as week
    means, alarm totals as sums) and carry: the schedule's display name, the
    deployed week count, the retrain count/weeks, the utility-decay slope
    (utility lost per week of configuration age; None when the age never
    varies), the full per-week ``timeline`` table, and the wall-clock spent
    (re)training.

    The sampling fields record *which hosts* were evaluated.  Full-population
    evaluations keep the defaults (``sample_size=0``, no interval).  Sampled
    evaluations (see :mod:`repro.core.sampling`) carry the evaluated sample
    size and its seed, plus the percentile-bootstrap confidence interval
    around ``mean_utility`` — the headline metrics then *are* the sample
    point estimates.
    """

    policy_name: str
    feature: str
    num_hosts: int
    mean_utility: float
    median_utility: float
    mean_false_positive_rate: float
    mean_false_negative_rate: float
    mean_detection_rate: float
    mean_f_measure: float
    total_false_alarms: int
    fraction_raising_alarm: float
    distinct_thresholds: int
    fusion: str = "any"
    num_features: int = 1
    per_feature: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    optimizer: str = "none"
    objective_value: Optional[float] = None
    optimizer_iterations: int = 0
    schedule: str = "one-shot"
    num_timeline_weeks: int = 0
    retrain_count: int = 0
    retrain_weeks: Tuple[int, ...] = ()
    utility_decay_slope: Optional[float] = None
    timeline: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    training_cost_seconds: float = 0.0
    sample_size: int = 0
    sample_seed: int = 0
    utility_ci_low: Optional[float] = None
    utility_ci_high: Optional[float] = None
    sample_confidence: float = 0.0
    bootstrap_iterations: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "retrain_weeks", tuple(int(w) for w in self.retrain_weeks))

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioOutcome":
        """Rebuild an outcome from :meth:`to_dict` output.

        Fields absent from ``data`` (e.g. records written before the
        feature-set redesign or the temporal subsystem) fall back to their
        one-shot single-feature defaults.
        """
        kwargs = {key: data[key] for key in cls.__dataclass_fields__ if key in data}
        return cls(**kwargs)


def _aggregate_performances(
    columns: AlarmColumns, weight: float, attack_prevalence: float
) -> Dict[str, float]:
    """The shared (FP, FN) → aggregate-metric computation, fused or per feature."""
    fp = columns.false_positive_rates
    fn = columns.false_negative_rates
    utilities = columns.utilities(weight)
    return {
        "mean_utility": float(np.mean(utilities)),
        "median_utility": float(np.median(utilities)),
        "mean_false_positive_rate": float(np.mean(fp)),
        "mean_false_negative_rate": float(np.mean(fn)),
        "mean_detection_rate": float(np.mean(1.0 - fn)),
        "mean_f_measure": float(np.mean(f_measure_from_rate_arrays(fp, fn, attack_prevalence))),
    }


def summarize_scenario(
    evaluation: PolicyEvaluation,
    attack_prevalence: float = 0.01,
    sample: Optional[SampleSpec] = None,
) -> ScenarioOutcome:
    """Condense a :class:`PolicyEvaluation` into a :class:`ScenarioOutcome`.

    ``attack_prevalence`` (the assumed fraction of bins carrying attack
    traffic) converts each host's (FP, FN) operating point into an F-measure;
    the paper's other aggregates (mean/median utility, alarm volume, fraction
    of hosts raising an alarm, distinct threshold count) come straight from
    the evaluation.  The headline numbers summarise the fused alarm; the
    ``per_feature`` table repeats them for every individual feature.  Every
    aggregate reads the per-host columns of ``evaluation.performances``.

    When ``sample`` is an enabled :class:`~repro.core.sampling.SampleSpec`
    the evaluation covered a host subsample: the headline metrics become the
    sample point estimates and the outcome additionally carries the
    percentile-bootstrap confidence interval over the per-host fused
    utilities (``utility_ci_low``/``utility_ci_high``).
    """
    performances = evaluation.performances
    protocol = evaluation.protocol
    weight = protocol.utility_weight
    fused = _aggregate_performances(performances.fused, weight, attack_prevalence)
    per_feature: Dict[str, Dict[str, float]] = {}
    for feature in protocol.features:
        columns = performances.feature_columns(feature)
        aggregates = _aggregate_performances(columns, weight, attack_prevalence)
        aggregates["total_false_alarms"] = columns.total_false_alarms()
        aggregates["fraction_raising_alarm"] = columns.fraction_raising_alarm()
        aggregates["distinct_thresholds"] = (
            evaluation.assignment.for_feature(feature).distinct_threshold_count
        )
        per_feature[feature.value] = aggregates
    optimization = evaluation.optimization
    sampling_fields: Dict[str, Any] = {}
    if sample is not None and sample.enabled:
        utilities = performances.fused.utilities(weight)
        low, high = bootstrap_mean_interval(
            utilities, sample.bootstrap, sample.confidence, sample.seed
        )
        sampling_fields = {
            "sample_size": len(utilities),
            "sample_seed": sample.seed,
            "utility_ci_low": low,
            "utility_ci_high": high,
            "sample_confidence": sample.confidence,
            "bootstrap_iterations": sample.bootstrap,
        }
    return ScenarioOutcome(
        policy_name=evaluation.policy_name,
        feature="+".join(feature.value for feature in protocol.features),
        num_hosts=len(performances),
        mean_utility=fused["mean_utility"],
        median_utility=fused["median_utility"],
        mean_false_positive_rate=fused["mean_false_positive_rate"],
        mean_false_negative_rate=fused["mean_false_negative_rate"],
        mean_detection_rate=fused["mean_detection_rate"],
        mean_f_measure=fused["mean_f_measure"],
        total_false_alarms=evaluation.total_false_alarms(),
        fraction_raising_alarm=evaluation.fraction_raising_alarm(),
        distinct_thresholds=evaluation.assignment.distinct_threshold_count,
        fusion=protocol.fusion.name,
        num_features=protocol.num_features,
        per_feature=per_feature,
        optimizer=optimization.optimizer if optimization is not None else "none",
        objective_value=optimization.objective_value if optimization is not None else None,
        optimizer_iterations=optimization.iterations if optimization is not None else 0,
        **sampling_fields,
    )


def evaluate_scenario(
    population: EnterprisePopulation,
    policy: "ConfigurationPolicy",
    protocol: DetectionProtocol,
    attack_builder: Optional[AttackBuilder] = None,
    attack_prevalence: float = 0.01,
    sample: Optional[SampleSpec] = None,
    memo: Optional[EvaluationMemo] = None,
) -> ScenarioOutcome:
    """Evaluate one policy on one population and return the scalar summary.

    This is the scenario-parameterised entry point the sweep runner (and any
    campaign driver) builds on: population in, one JSON-ready row of metrics
    out.  ``population`` may be a fully in-memory
    :class:`~repro.workload.enterprise.EnterprisePopulation` or a
    :class:`~repro.engine.ShardedPopulation` — any object exposing
    ``host_ids`` and ``matrices()``.

    An enabled ``sample`` evaluates a seeded host subsample instead of the
    full population and adds a bootstrap confidence interval to the outcome.
    On a sharded population only the shards holding sampled hosts are ever
    loaded (via ``matrices_for``), so memory stays bounded however large the
    population is.

    ``memo`` shares trainings and assignments with earlier evaluations of the
    same population (see :class:`~repro.core.evaluation.EvaluationMemo`).  A
    sampled evaluation never uses it: its host subset is a mapping of its
    own, which nothing else would reuse.
    """
    sampled = sample is not None and sample.enabled
    evaluation = evaluate_policy(
        _scenario_matrices(population, sample),
        policy,
        protocol,
        attack_builder=attack_builder,
        memo=None if sampled else memo,
    )
    return summarize_scenario(evaluation, attack_prevalence=attack_prevalence, sample=sample)


def _scenario_matrices(
    population: EnterprisePopulation, sample: Optional[SampleSpec]
) -> Mapping[int, FeatureMatrix]:
    """The matrices a scenario evaluates: the full population, or its sample."""
    if sample is None or not sample.enabled:
        return population.matrices()
    chosen = sample_host_ids(population.host_ids, sample.size, sample.seed)
    subset = getattr(population, "matrices_for", None)
    if subset is not None:
        return subset(chosen)
    matrices = population.matrices()
    return {host_id: matrices[host_id] for host_id in chosen}


class PolicyComparison:
    """Evaluate several policies under identical conditions.

    Parameters
    ----------
    context:
        The shared experiment context (population, train/test weeks).
    policies:
        The policies to compare; defaults to the paper's three.
    """

    def __init__(
        self,
        context: ExperimentContext,
        policies: Optional[Sequence[ConfigurationPolicy]] = None,
    ) -> None:
        self._context = context
        self._policies = list(policies) if policies is not None else standard_policies()

    def run(
        self,
        feature: Union[Feature, DetectionProtocol],
        utility_weight: float = 0.4,
        attack_builder: Optional[AttackBuilder] = None,
    ) -> Dict[str, PolicyEvaluation]:
        """Evaluate every policy and return results by policy name.

        ``feature`` accepts either a single :class:`Feature` (the protocol is
        built with the context's train/test weeks) or a full
        :class:`DetectionProtocol` for multi-feature/fused comparisons.
        """
        if isinstance(feature, DetectionProtocol):
            protocol = feature
        else:
            protocol = self._context.protocol(feature, utility_weight)
        matrices = self._context.matrices
        results: Dict[str, PolicyEvaluation] = {}
        for policy in self._policies:
            results[policy.name] = evaluate_policy(
                matrices, policy, protocol, attack_builder=attack_builder
            )
        return results
