"""Figure 4: attacker effectiveness under the three policies.

Figure 4(a) — *naive attacker*: sweep the injected attack size and plot the
fraction of users whose HIDS raises at least one alarm during the attacked
test week.  The diversity policies detect stealthy attacks (tens of
connections per window) on far more hosts than the monoculture threshold.

Figure 4(b) — *resourceful attacker*: for each host, the largest per-bin
injection a mimicry attacker who knows the host's distribution can sustain
while evading detection with 90% probability ("hidden traffic").  Diversity
policies shrink the median hidden traffic to roughly a third of the
monoculture value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.attacks import mimicry
# Unused here, but perfbench/layers.py times it by patching this module's
# attribute (read with getattr), so the name must stay importable.
from repro.attacks.mimicry import hidden_traffic_by_host  # noqa: F401
from repro.attacks.naive import attack_size_sweep
from repro.core.evaluation import (
    DetectionProtocol,
    _threshold_vector,
    _window_blocks,
    detection_training_distributions,
    naive_false_negatives,
    # Unused here, but perfbench/layers.py times them by patching this module's
    # attributes (read with getattr), so the names must stay importable.
    measure_assignment,  # noqa: F401
    training_distributions,  # noqa: F401
)
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic
from repro.experiments.report import render_series, render_table
from repro.features.definitions import Feature
from repro.stats.summary import SummaryStatistics, summarize
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation


@dataclass(frozen=True)
class AttackerResult:
    """Both panels of Figure 4."""

    feature: Feature
    attack_sizes: Tuple[float, ...]
    detection_curves: Mapping[str, Sequence[float]]
    hidden_traffic: Mapping[str, Mapping[int, float]]
    evasion_probability: float

    def hidden_traffic_summary(self) -> Dict[str, SummaryStatistics]:
        """Boxplot summaries of per-host hidden traffic (Figure 4(b))."""
        return {name: summarize(list(values.values())) for name, values in self.hidden_traffic.items()}

    def median_hidden_traffic(self) -> Dict[str, float]:
        """Median hidden traffic per policy."""
        return {name: summary.median for name, summary in self.hidden_traffic_summary().items()}

    def stealthy_detection_gap(self, stealthy_max: float = 100.0) -> float:
        """Average detection-rate advantage of full diversity over homogeneous
        for stealthy attacks (sizes up to ``stealthy_max``)."""
        sizes = np.array(self.attack_sizes)
        mask = sizes <= stealthy_max
        if not np.any(mask):
            return 0.0
        full = np.array(self.detection_curves["full-diversity"])[mask]
        homogeneous = np.array(self.detection_curves["homogeneous"])[mask]
        return float(np.mean(full - homogeneous))

    def render(self) -> str:
        """Text rendering of both panels."""
        panel_a = render_series(
            "attack size",
            list(self.attack_sizes),
            {name: list(values) for name, values in self.detection_curves.items()},
            title=f"Figure 4(a) — fraction of users raising alarms vs attack size ({self.feature.value})",
        )
        rows = []
        for name, summary in self.hidden_traffic_summary().items():
            rows.append([name, summary.q1, summary.median, summary.q3, summary.maximum])
        panel_b = render_table(
            ["policy", "q1", "median", "q3", "max"],
            rows,
            title=(
                "Figure 4(b) — hidden traffic sustainable by a resourceful attacker "
                f"(evasion probability {self.evasion_probability:g})"
            ),
        )
        return panel_a + "\n\n" + panel_b


def run_fig4(
    population: EnterprisePopulation,
    feature: Feature = Feature.TCP_CONNECTIONS,
    train_week: int = 0,
    test_week: int = 1,
    num_attack_sizes: int = 12,
    evasion_probability: float = 0.9,
    partial_groups: int = 8,
) -> AttackerResult:
    """Compute Figure 4 on ``population``."""
    require(num_attack_sizes >= 2, "num_attack_sizes must be >= 2")
    matrices = population.matrices()
    protocol = DetectionProtocol(features=(feature,), train_week=train_week, test_week=test_week)
    heuristic = PercentileHeuristic(99.0)
    policies: Sequence[ConfigurationPolicy] = (
        HomogeneousPolicy(heuristic),
        FullDiversityPolicy(heuristic),
        PartialDiversityPolicy(heuristic, num_groups=partial_groups),
    )

    # Panel (a): naive attacker size sweep.
    max_size = max(population.max_observed(feature), 10.0)
    sizes = tuple(float(s) for s in attack_size_sweep(max_size, num_attack_sizes))

    # Training and threshold assignment are attack-independent, so they are
    # computed once per policy and reused across the whole size sweep and by
    # panel (b).
    training = detection_training_distributions(
        matrices,
        protocol.features,
        protocol.train_week,
        active_bins_only=protocol.train_on_active_bins,
    )
    assignments = {
        policy.name: policy.assign(
            training,
            grouping_statistic_percentile=protocol.grouping_statistic_percentile,
            fusion=protocol.fusion,
        )
        for policy in policies
    }

    # Every size is at least 1, so every host is attacked, and the fraction
    # of hosts raising an alarm at a size is the fraction whose FN is below 1.
    detection_curves: Dict[str, Tuple[float, ...]] = {}
    for policy in policies:
        fn = naive_false_negatives(matrices, assignments[policy.name], protocol, sizes)
        detection_curves[policy.name] = tuple(np.mean(fn < 1.0, axis=0).tolist())

    # Panel (b): resourceful (mimicry) attacker hidden traffic.  The hosts of
    # each bin grid read their test week as one block (a frame view, or a
    # stack), whose percentile is taken once for every policy's thresholds.
    hidden_of: Dict[str, Dict[int, float]] = {policy.name: {} for policy in policies}
    for host_ids, _, block in _window_blocks(matrices, feature, test_week, test_week + 1):
        thresholds = np.stack(
            [_threshold_vector(assignments[policy.name], feature, host_ids) for policy in policies]
        )
        rows = mimicry.batch_hidden_traffic(block, thresholds, evasion_probability)
        for policy, row in zip(policies, rows):
            hidden_of[policy.name].update(zip(host_ids, row.tolist()))
    # In the population's host order, whatever the grid grouping.
    hidden: Dict[str, Mapping[int, float]] = {
        name: {host_id: values[host_id] for host_id in matrices}
        for name, values in hidden_of.items()
    }

    return AttackerResult(
        feature=feature,
        attack_sizes=sizes,
        detection_curves=detection_curves,
        hidden_traffic=hidden,
        evasion_probability=evasion_probability,
    )
