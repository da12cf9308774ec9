"""Table 3: average number of false alarms arriving at the IT console per week.

For each policy (and for both the 99th-percentile and the utility-based
threshold heuristics) the harness counts how many benign test-week bins exceed
their host's threshold across the whole population — the alarms an IT
operations centre would have to triage.

:func:`run_table3_fused` is the feature-set variant: the console triages
*fused* alarms of a multi-feature protocol, and each row selects the
per-feature thresholds through a different :mod:`repro.optimize` optimizer —
the co-optimised console load next to the independent per-feature baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.evaluation import DetectionProtocol, EvaluationMemo, evaluate_policy
from repro.core.fusion import FusionRule
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic, ThresholdHeuristic, UtilityHeuristic
from repro.experiments.fig3_utility import default_attack_sizes
from repro.experiments.report import render_table
from repro.features.definitions import Feature
from repro.optimize import (
    CoordinateAscentOptimizer,
    IndependentOptimizer,
    ThresholdOptimizer,
)
from repro.workload.enterprise import EnterprisePopulation


@dataclass(frozen=True)
class AlarmVolumeResult:
    """Table 3: alarms/week per (heuristic, policy) combination."""

    feature: Feature
    num_hosts: int
    alarms: Mapping[str, Mapping[str, float]]

    def per_host_rate(self, heuristic_name: str, policy_name: str) -> float:
        """Average alarms per host per week for one cell of the table."""
        return self.alarms[heuristic_name][policy_name] / self.num_hosts

    def render(self) -> str:
        """Text rendering of Table 3."""
        policy_names = list(next(iter(self.alarms.values())).keys())
        rows: List[Sequence[object]] = []
        for heuristic_name, per_policy in self.alarms.items():
            rows.append([heuristic_name] + [per_policy[name] for name in policy_names])
        return render_table(
            ["threshold heuristic"] + policy_names,
            rows,
            title=(
                f"Table 3 — false alarms arriving at the IT console per week "
                f"({self.num_hosts} hosts, feature={self.feature.value})"
            ),
        )


def run_table3(
    population: EnterprisePopulation,
    feature: Feature = Feature.TCP_CONNECTIONS,
    train_week: int = 0,
    test_week: int = 1,
    utility_weight: float = 0.4,
    attack_sizes: Optional[Sequence[float]] = None,
    partial_groups: int = 8,
    memo: Optional[EvaluationMemo] = None,
) -> AlarmVolumeResult:
    """Compute Table 3 on ``population``.

    Every evaluation takes its training and assignments from ``memo``, a
    fresh :class:`~repro.core.evaluation.EvaluationMemo` when None: the six
    cells train once.
    """
    memo = EvaluationMemo() if memo is None else memo
    matrices = population.matrices()
    protocol = DetectionProtocol(
        features=(feature,),
        train_week=train_week,
        test_week=test_week,
        utility_weight=utility_weight,
    )
    if attack_sizes is None:
        attack_sizes = default_attack_sizes(population, feature)

    heuristics: Dict[str, ThresholdHeuristic] = {
        "99th-percentile": PercentileHeuristic(99.0),
        f"utility (w={utility_weight:g})": UtilityHeuristic(
            weight=utility_weight, attack_sizes=attack_sizes
        ),
    }

    alarms: Dict[str, Dict[str, float]] = {}
    for heuristic_name, heuristic in heuristics.items():
        policies: Sequence[ConfigurationPolicy] = (
            HomogeneousPolicy(heuristic),
            FullDiversityPolicy(heuristic),
            PartialDiversityPolicy(heuristic, num_groups=partial_groups),
        )
        per_policy: Dict[str, float] = {}
        for policy in policies:
            evaluation = evaluate_policy(matrices, policy, protocol, memo=memo)
            per_policy[policy.name] = float(evaluation.total_false_alarms())
        alarms[heuristic_name] = per_policy

    return AlarmVolumeResult(feature=feature, num_hosts=len(population), alarms=alarms)


@dataclass(frozen=True)
class FusedAlarmVolumeResult:
    """Fused Table 3: console alarms/week per (optimizer, policy) on a feature set.

    Attributes
    ----------
    features:
        The monitored feature set.
    fusion:
        Display name of the fusion rule combining the per-feature alerts.
    num_hosts:
        Population size.
    alarms:
        ``alarms[optimizer_name][policy_name]`` = fused benign alarms arriving
        at the console over the test week.
    objective_values:
        The training-side fused objective each (optimizer, policy) achieved —
        what the optimizer believed it was buying.
    """

    features: Tuple[Feature, ...]
    fusion: str
    num_hosts: int
    alarms: Mapping[str, Mapping[str, float]]
    objective_values: Mapping[str, Mapping[str, float]]

    def per_host_rate(self, optimizer_name: str, policy_name: str) -> float:
        """Average fused alarms per host per week for one cell."""
        return self.alarms[optimizer_name][policy_name] / self.num_hosts

    def render(self) -> str:
        """Text rendering of the fused Table 3."""
        policy_names = list(next(iter(self.alarms.values())).keys())
        rows: List[Sequence[object]] = []
        for optimizer_name, per_policy in self.alarms.items():
            rows.append([optimizer_name] + [per_policy[name] for name in policy_names])
        feature_names = "+".join(feature.value for feature in self.features)
        return render_table(
            ["threshold selection"] + policy_names,
            rows,
            title=(
                f"Table 3 (fused) — fused alarms at the IT console per week "
                f"({self.num_hosts} hosts, features={feature_names}, fusion={self.fusion})"
            ),
        )


def run_table3_fused(
    population: EnterprisePopulation,
    features: Sequence[Feature] = (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS),
    fusion: Optional[FusionRule] = None,
    optimizers: Optional[Mapping[str, ThresholdOptimizer]] = None,
    train_week: int = 0,
    test_week: int = 1,
    utility_weight: float = 0.4,
    attack_sizes: Sequence[float] = (10.0, 50.0, 100.0, 500.0),
    partial_groups: int = 8,
    memo: Optional[EvaluationMemo] = None,
) -> FusedAlarmVolumeResult:
    """Compute the fused Table 3: console load under each threshold optimizer.

    Every cell evaluates the same fused :class:`DetectionProtocol` with the
    utility heuristic as the per-feature base; the rows differ only in how
    the per-feature threshold vector is *selected* (independent per-feature
    heuristics vs joint co-optimisation of the fused utility).

    Every evaluation takes its training and assignments from ``memo``, a
    fresh :class:`~repro.core.evaluation.EvaluationMemo` when None.
    """
    memo = EvaluationMemo() if memo is None else memo
    matrices = population.matrices()
    fusion = fusion if fusion is not None else FusionRule.any_()
    protocol = DetectionProtocol(
        features=tuple(features),
        fusion=fusion,
        train_week=train_week,
        test_week=test_week,
        utility_weight=utility_weight,
    )
    if optimizers is None:
        optimizers = {
            "independent": IndependentOptimizer(
                weight=utility_weight, attack_sizes=tuple(attack_sizes)
            ),
            "coordinate-ascent": CoordinateAscentOptimizer(
                weight=utility_weight, attack_sizes=tuple(attack_sizes)
            ),
        }
    heuristic = UtilityHeuristic(weight=utility_weight, attack_sizes=tuple(attack_sizes))

    alarms: Dict[str, Dict[str, float]] = {}
    objectives: Dict[str, Dict[str, float]] = {}
    for optimizer_name, optimizer in optimizers.items():
        policies: Sequence[ConfigurationPolicy] = (
            HomogeneousPolicy(heuristic, optimizer=optimizer),
            FullDiversityPolicy(heuristic, optimizer=optimizer),
            PartialDiversityPolicy(heuristic, num_groups=partial_groups, optimizer=optimizer),
        )
        per_policy: Dict[str, float] = {}
        per_policy_objective: Dict[str, float] = {}
        for policy in policies:
            evaluation = evaluate_policy(matrices, policy, protocol, memo=memo)
            per_policy[policy.name] = float(evaluation.total_false_alarms())
            per_policy_objective[policy.name] = float(evaluation.optimization.objective_value)
        alarms[optimizer_name] = per_policy
        objectives[optimizer_name] = per_policy_objective

    return FusedAlarmVolumeResult(
        features=tuple(features),
        fusion=fusion.name,
        num_hosts=len(population),
        alarms=alarms,
        objective_values=objectives,
    )
