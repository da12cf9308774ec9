"""Figure 1: tail diversity across the user population.

For every feature, compute each host's 99th and 99.9th percentile of the
per-bin count distribution.  The paper's Figure 1 plots these per-user
thresholds (sorted by value) and observes spreads of two to four orders of
magnitude depending on the feature — the central "user fringe diversity"
measurement the rest of the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.evaluation import series_distributions
from repro.experiments.report import render_table
from repro.features.definitions import Feature, PAPER_FEATURES
from repro.stats.empirical import stacked_percentiles
from repro.stats.tail import orders_of_magnitude
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation


@dataclass(frozen=True)
class FeatureTailDiversity:
    """Per-feature tail-diversity measurements (one panel of Figure 1)."""

    feature: Feature
    p99_by_host: Mapping[int, float]
    p999_by_host: Mapping[int, float]

    @property
    def sorted_p99(self) -> np.ndarray:
        """Per-host 99th percentiles sorted ascending (the plotted curve)."""
        return np.sort(np.array(list(self.p99_by_host.values())))

    @property
    def sorted_p999(self) -> np.ndarray:
        """Per-host 99.9th percentiles sorted ascending."""
        return np.sort(np.array(list(self.p999_by_host.values())))

    def spread_orders_of_magnitude(self, use_p999: bool = False) -> float:
        """log10(max / min) of the per-host thresholds."""
        values = self.sorted_p999 if use_p999 else self.sorted_p99
        positive = values[values > 0]
        if positive.size < 2:
            return 0.0
        return orders_of_magnitude(positive)


@dataclass(frozen=True)
class TailDiversityResult:
    """All six panels of Figure 1."""

    per_feature: Mapping[Feature, FeatureTailDiversity]
    num_hosts: int

    def spread_summary(self) -> Dict[Feature, float]:
        """Orders-of-magnitude spread of the 99th percentile per feature."""
        return {
            feature: diversity.spread_orders_of_magnitude()
            for feature, diversity in self.per_feature.items()
        }

    def render(self) -> str:
        """Text table equivalent of Figure 1 (one row per feature)."""
        rows: List[Sequence[object]] = []
        for feature, diversity in self.per_feature.items():
            p99 = diversity.sorted_p99
            rows.append(
                [
                    feature.value,
                    float(np.min(p99)),
                    float(np.median(p99)),
                    float(np.max(p99)),
                    diversity.spread_orders_of_magnitude(),
                    diversity.spread_orders_of_magnitude(use_p999=True),
                ]
            )
        return render_table(
            ["feature", "min p99", "median p99", "max p99", "p99 spread (oom)", "p99.9 spread (oom)"],
            rows,
            title=f"Figure 1 — per-host threshold (tail) diversity across {self.num_hosts} hosts",
        )


def run_fig1(
    population: EnterprisePopulation,
    features: Sequence[Feature] = PAPER_FEATURES,
    active_bins_only: bool = True,
) -> TailDiversityResult:
    """Compute the Figure 1 measurements on ``population``.

    ``active_bins_only`` mirrors the connection-log semantics used for
    threshold learning (zero-count bins excluded from the distribution, or
    every bin of a host with no active one).  Each feature's rows come from
    one sort of its ``(hosts, bins)`` block over the whole series, and both
    tails from one pass of the percentile kernel; every value equals
    ``np.percentile`` of the host's own bins.
    """
    require(len(features) > 0, "at least one feature is required")
    distributions = series_distributions(population.matrices(), features, active_bins_only)
    per_feature: Dict[Feature, FeatureTailDiversity] = {}
    for feature, by_host in distributions.items():
        tails = stacked_percentiles(list(by_host.values()), [99.0, 99.9]).T.tolist()
        per_feature[feature] = FeatureTailDiversity(
            feature=feature,
            p99_by_host=dict(zip(by_host, tails[0])),
            p999_by_host=dict(zip(by_host, tails[1])),
        )
    return TailDiversityResult(per_feature=per_feature, num_hosts=len(population))
