"""Figure 5: detection of a real (Storm botnet) attack.

A week-long Storm zombie trace is overlaid on every user's test week; the
monitored feature is the number of distinct destination addresses.  For every
host the harness records the (false positive, detection rate) point, exactly
the scatter the paper plots:

* Figure 5(a) compares Homogeneous vs Full Diversity — diversity pins the
  false-positive rate near the 1% target while detection varies per host;
  homogeneous pins detection near one value while the false-positive rate is
  scattered over orders of magnitude (heavy users flood the console).
* Figure 5(b) compares Full Diversity vs 8-Partial — partial diversity bounds
  the false-positive spread while keeping similar detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.storm import StormZombieModel, storm_builder
from repro.core.evaluation import DetectionProtocol, EvaluationMemo, evaluate_policy
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic
from repro.experiments.report import render_table
from repro.features.definitions import Feature
from repro.workload.enterprise import EnterprisePopulation


@dataclass(frozen=True)
class StormReplayResult:
    """Per-host (FP, detection-rate) scatter for every policy."""

    feature: Feature
    scatter: Mapping[str, Mapping[int, Tuple[float, float]]]

    def policy_names(self) -> Tuple[str, ...]:
        """Policies included in the comparison."""
        return tuple(self.scatter.keys())

    def false_positive_spread(self, policy_name: str) -> float:
        """Orders of magnitude between the largest and smallest non-zero FP rate."""
        rates = [fp for fp, _ in self.scatter[policy_name].values() if fp > 0]
        if len(rates) < 2:
            return 0.0
        return float(np.log10(max(rates) / min(rates)))

    def median_detection(self, policy_name: str) -> float:
        """Median per-host detection rate under ``policy_name``."""
        detections = [det for _, det in self.scatter[policy_name].values()]
        return float(np.median(detections))

    def mean_detection(self, policy_name: str) -> float:
        """Mean per-host detection rate under ``policy_name``."""
        detections = [det for _, det in self.scatter[policy_name].values()]
        return float(np.mean(detections))

    def max_false_positive(self, policy_name: str) -> float:
        """Worst per-host false-positive rate under ``policy_name``."""
        return float(max(fp for fp, _ in self.scatter[policy_name].values()))

    def render(self) -> str:
        """Text rendering of the Figure 5 comparison."""
        rows: List[Sequence[object]] = []
        for name in self.policy_names():
            rows.append(
                [
                    name,
                    self.median_detection(name),
                    self.mean_detection(name),
                    self.max_false_positive(name),
                    self.false_positive_spread(name),
                ]
            )
        return render_table(
            ["policy", "median detection", "mean detection", "max FP", "FP spread (oom)"],
            rows,
            title=f"Figure 5 — Storm zombie replay ({self.feature.value})",
        )


def run_fig5(
    population: EnterprisePopulation,
    feature: Feature = Feature.DISTINCT_CONNECTIONS,
    train_week: int = 0,
    test_week: int = 1,
    storm_model: Optional[StormZombieModel] = None,
    storm_seed: int = 1701,
    partial_groups: int = 8,
    memo: Optional[EvaluationMemo] = None,
) -> StormReplayResult:
    """Compute Figure 5 on ``population``.

    The same Storm zombie trace (same seed) is overlaid on every host's test
    week, matching the paper's replay methodology.  Every evaluation takes
    its training and assignments from ``memo``, a fresh
    :class:`~repro.core.evaluation.EvaluationMemo` when None.
    """
    memo = EvaluationMemo() if memo is None else memo
    matrices = population.matrices()
    protocol = DetectionProtocol(features=(feature,), train_week=train_week, test_week=test_week)
    heuristic = PercentileHeuristic(99.0)
    policies: Sequence[ConfigurationPolicy] = (
        HomogeneousPolicy(heuristic),
        FullDiversityPolicy(heuristic),
        PartialDiversityPolicy(heuristic, num_groups=partial_groups),
    )
    attack_builder = storm_builder(storm_seed, storm_model)

    scatter: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for policy in policies:
        evaluation = evaluate_policy(
            matrices, policy, protocol, attack_builder=attack_builder, memo=memo
        )
        false_positives = evaluation.false_positive_rates()
        detections = evaluation.detection_rates()
        scatter[policy.name] = {
            host_id: (false_positives[host_id], detections[host_id]) for host_id in false_positives
        }
    return StormReplayResult(feature=feature, scatter=scatter)
