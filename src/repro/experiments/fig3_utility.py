"""Figure 3: per-host utility under the three policies.

Figure 3(a) is a boxplot of per-host utilities for the Homogeneous,
Full-Diversity and 8-Partial policies with the utility-maximising threshold
heuristic at ``w = 0.4``.  Figure 3(b) sweeps the weight ``w`` from 0.1 to
0.9 and plots the population-average utility, showing that the gain of the
diversity policies over the monoculture grows as missed detections become
more important.

:func:`run_fig3_cooptimized` is the joint-selection variant: the same three
policies on a *fused* multi-feature protocol under the mimicry attacker,
with the per-feature thresholds selected either independently (the paper's
per-feature heuristics) or co-optimised for the fused utility by
:class:`~repro.optimize.CoordinateAscentOptimizer` — the gap between the two
columns is what joint selection buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.mimicry import mimicry_builder
from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import (
    DetectionProtocol,
    PolicyEvaluation,
    evaluate_policy,
    naive_false_negatives,
)
from repro.core.fusion import FusionRule
from repro.core.metrics import utility_from_rate_arrays
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import UtilityHeuristic
from repro.experiments.report import render_series, render_table
from repro.features.definitions import Feature
from repro.optimize import CoordinateAscentOptimizer, IndependentOptimizer, ThresholdOptimizer
from repro.stats.summary import SummaryStatistics, summarize
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation


@dataclass(frozen=True)
class UtilityComparisonResult:
    """Figure 3(a) boxplot summaries and the Figure 3(b) weight sweep.

    Both panels score each host by its FN averaged over the attack-size
    sweep.  ``evaluations`` holds each policy's full evaluation under the
    first attack size only (the smallest, by default): it is kept for the
    per-host thresholds, and its utilities are not the figure's.
    """

    feature: Feature
    utility_weight: float
    boxplots: Mapping[str, SummaryStatistics]
    weight_sweep: Mapping[str, Sequence[float]]
    weights: Tuple[float, ...]
    evaluations: Mapping[str, PolicyEvaluation]

    def mean_utilities(self) -> Dict[str, float]:
        """Population-average utility per policy at the headline weight.

        The mean of the Figure 3(a) boxplot: each host's FN is averaged over
        the attack-size sweep first.
        """
        return {name: summary.mean for name, summary in self.boxplots.items()}

    def gain_by_weight(self) -> List[float]:
        """Full-diversity minus homogeneous average utility for every swept weight."""
        full = self.weight_sweep["full-diversity"]
        homo = self.weight_sweep["homogeneous"]
        return [f - h for f, h in zip(full, homo, strict=True)]

    def render(self) -> str:
        """Text rendering of both panels."""
        rows = []
        for name, summary in self.boxplots.items():
            rows.append([name, summary.q1, summary.median, summary.q3, summary.mean])
        panel_a = render_table(
            ["policy", "q1", "median", "q3", "mean"],
            rows,
            title=f"Figure 3(a) — per-host utility (w={self.utility_weight}), feature={self.feature.value}",
        )
        panel_b = render_series(
            "w",
            list(self.weights),
            {name: list(values) for name, values in self.weight_sweep.items()},
            title="Figure 3(b) — average utility vs weight w",
        )
        return panel_a + "\n\n" + panel_b


def default_attack_sizes(population: EnterprisePopulation, feature: Feature) -> Tuple[float, ...]:
    """Attack sizes spanning the range that can hide inside user traffic.

    The paper sweeps attack sizes up to the largest value seen in user
    traffic: anything bigger stands out on every host.  The interesting range
    is bounded by the heaviest user's tail (99th percentile), so the sweep is
    linear from a small fraction of that value up to it.
    """
    tails = list(population.per_host_percentiles(feature, 99).values())
    maximum = max(max(tails), 10.0)
    return tuple(float(round(x)) for x in np.linspace(maximum / 20.0, maximum, 10))


def run_fig3(
    population: EnterprisePopulation,
    feature: Feature = Feature.TCP_CONNECTIONS,
    utility_weight: float = 0.4,
    weights: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    train_week: int = 0,
    test_week: int = 1,
    attack_sizes: Optional[Sequence[float]] = None,
    partial_groups: int = 8,
) -> UtilityComparisonResult:
    """Compute Figure 3 on ``population``.

    The threshold heuristic is the utility-maximising one (as in the paper's
    Figure 3(a)); the false-negative rate of each host is measured against a
    sweep of injected attack sizes overlaid on its test week.

    ``evaluations`` holds each policy's full evaluation under the first
    attack size (the smallest, by default); the figure's numbers average
    each host's FN over every size.
    """
    require(len(weights) > 0, "at least one weight is required")
    sizes = tuple(attack_sizes) if attack_sizes is not None else default_attack_sizes(population, feature)
    require(len(sizes) > 0, "at least one attack size is required")
    heuristic = UtilityHeuristic(weight=utility_weight, attack_sizes=sizes)
    policies: List[ConfigurationPolicy] = [
        HomogeneousPolicy(heuristic),
        FullDiversityPolicy(heuristic),
        PartialDiversityPolicy(heuristic, num_groups=partial_groups),
    ]
    matrices = population.matrices()
    protocol = DetectionProtocol(
        features=(feature,),
        train_week=train_week,
        test_week=test_week,
        utility_weight=utility_weight,
    )

    # The evaluated attacks: one always-on naive injection per swept size.
    first_builder = NaiveAttacker(feature=feature, attack_size=sizes[0]).builder()
    evaluations: Dict[str, PolicyEvaluation] = {}
    rates: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for policy in policies:
        # A host's threshold depends on the training week, never on the
        # attack: train and assign once, under the first size, then score
        # that assignment under every size.  Each host's FN is averaged over
        # the sizes (a C-order row mean sums pairwise, as np.mean of the
        # host's own FN list does); FP does not depend on the attack.
        first = evaluate_policy(matrices, policy, protocol, attack_builder=first_builder)
        evaluations[policy.name] = first
        false_negatives = naive_false_negatives(matrices, first.assignment, protocol, sizes)
        rates[policy.name] = (
            first.performances.fused.false_positive_rates,
            false_negatives.mean(axis=1),
        )

    def utilities_at(policy_name: str, weight: float) -> np.ndarray:
        false_positives, false_negatives = rates[policy_name]
        return utility_from_rate_arrays(false_positives, false_negatives, weight)

    boxplots = {name: summarize(utilities_at(name, utility_weight)) for name in rates}
    weight_sweep = {
        name: [float(np.mean(utilities_at(name, weight))) for weight in weights]
        for name in rates
    }
    return UtilityComparisonResult(
        feature=feature,
        utility_weight=utility_weight,
        boxplots=boxplots,
        weight_sweep=weight_sweep,
        weights=tuple(weights),
        evaluations=evaluations,
    )


@dataclass(frozen=True)
class CoOptimizedUtilityResult:
    """Figure 3 (co-optimised): fused utility, independent vs joint selection.

    Attributes
    ----------
    features:
        The monitored feature set.
    fusion:
        Display name of the fusion rule.
    utility_weight:
        The ``w`` of the reported utilities.
    mean_utilities:
        ``mean_utilities[optimizer_name][policy_name]`` = population-average
        fused utility measured on the attacked test week.
    detection_rates:
        Same shape, the fused detection rate ``1 - FN``.
    objective_values:
        Same shape, the training-side fused objective each selection
        achieved.
    """

    features: Tuple[Feature, ...]
    fusion: str
    utility_weight: float
    mean_utilities: Mapping[str, Mapping[str, float]]
    detection_rates: Mapping[str, Mapping[str, float]]
    objective_values: Mapping[str, Mapping[str, float]]

    def gap(self, policy_name: str) -> float:
        """Fused-utility gain of joint selection over independent for one policy."""
        return (
            self.mean_utilities["coordinate-ascent"][policy_name]
            - self.mean_utilities["independent"][policy_name]
        )

    def render(self) -> str:
        """Text rendering: one row per policy, one utility column per optimizer."""
        optimizer_names = list(self.mean_utilities)
        policy_names = list(next(iter(self.mean_utilities.values())).keys())
        rows: List[Sequence[object]] = []
        for policy_name in policy_names:
            row: List[object] = [policy_name]
            for optimizer_name in optimizer_names:
                row.append(self.mean_utilities[optimizer_name][policy_name])
            if {"independent", "coordinate-ascent"} <= set(optimizer_names):
                row.append(self.gap(policy_name))
            rows.append(row)
        headers = ["policy"] + [f"utility ({name})" for name in optimizer_names]
        if {"independent", "coordinate-ascent"} <= set(optimizer_names):
            headers.append("gap")
        feature_names = "+".join(feature.value for feature in self.features)
        return render_table(
            headers,
            rows,
            title=(
                f"Figure 3 (co-optimised) — mean fused utility under mimicry "
                f"(w={self.utility_weight:g}, features={feature_names}, fusion={self.fusion})"
            ),
        )


def run_fig3_cooptimized(
    population: EnterprisePopulation,
    features: Sequence[Feature] = (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS),
    fusion: Optional[FusionRule] = None,
    utility_weight: float = 0.4,
    attack_sizes: Optional[Sequence[float]] = None,
    evasion_probability: float = 0.9,
    train_week: int = 0,
    test_week: int = 1,
    partial_groups: int = 8,
    optimizers: Optional[Mapping[str, ThresholdOptimizer]] = None,
) -> CoOptimizedUtilityResult:
    """Compute the co-optimised Figure 3 variant on ``population``.

    The attacker is the resourceful mimic: on every host it sizes its
    injection to slip under whatever threshold is actually in force on the
    primary feature — so it adapts to the co-optimised thresholds too, and
    the measured gap is a fair fight between selection strategies, not an
    attacker caught off guard.
    """
    features = tuple(features)
    fusion = fusion if fusion is not None else FusionRule.any_()
    sizes = (
        tuple(attack_sizes)
        if attack_sizes is not None
        else default_attack_sizes(population, features[0])
    )
    heuristic = UtilityHeuristic(weight=utility_weight, attack_sizes=sizes)
    if optimizers is None:
        optimizers = {
            "independent": IndependentOptimizer(weight=utility_weight, attack_sizes=sizes),
            "coordinate-ascent": CoordinateAscentOptimizer(
                weight=utility_weight, attack_sizes=sizes
            ),
        }
    matrices = population.matrices()
    protocol = DetectionProtocol(
        features=features,
        fusion=fusion,
        train_week=train_week,
        test_week=test_week,
        utility_weight=utility_weight,
    )
    mimicry = mimicry_builder(features[0], evasion_probability)

    mean_utilities: Dict[str, Dict[str, float]] = {}
    detection_rates: Dict[str, Dict[str, float]] = {}
    objective_values: Dict[str, Dict[str, float]] = {}
    for optimizer_name, optimizer in optimizers.items():
        policies: List[ConfigurationPolicy] = [
            HomogeneousPolicy(heuristic, optimizer=optimizer),
            FullDiversityPolicy(heuristic, optimizer=optimizer),
            PartialDiversityPolicy(heuristic, num_groups=partial_groups, optimizer=optimizer),
        ]
        utilities: Dict[str, float] = {}
        detections: Dict[str, float] = {}
        objectives: Dict[str, float] = {}
        for policy in policies:
            evaluation = evaluate_policy(matrices, policy, protocol, attack_builder=mimicry)
            utilities[policy.name] = evaluation.mean_utility()
            detections[policy.name] = float(
                np.mean(list(evaluation.detection_rates().values()))
            )
            objectives[policy.name] = float(evaluation.optimization.objective_value)
        mean_utilities[optimizer_name] = utilities
        detection_rates[optimizer_name] = detections
        objective_values[optimizer_name] = objectives

    return CoOptimizedUtilityResult(
        features=features,
        fusion=fusion.name,
        utility_weight=utility_weight,
        mean_utilities=mean_utilities,
        detection_rates=detection_rates,
        objective_values=objective_values,
    )
