"""Figure 6 (extension): utility decay with and without retraining.

The paper evaluates thresholds exactly one week after training them; this
experiment extends its protocol along the axis the paper leaves implicit —
*time*.  On the same drifting population, the three configuration policies
are deployed once and then either left alone (``never``, the paper's
protocol continued), retrained every week on a rolling window, or retrained
when the population drift statistic crosses a trigger.  The result is the
per-week fused-utility trajectory of each (policy, schedule) pair plus the
staleness summary (decay slope, retrain count): how much utility a frozen
configuration bleeds per week, and how little retraining it takes to stop
the bleeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.evaluation import DetectionProtocol
from repro.core.policies import (
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic
from repro.experiments.report import render_table
from repro.features.definitions import Feature
from repro.temporal import (
    RetrainSchedule,
    StalenessReport,
    evaluate_timeline,
    staleness_report,
)
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation

#: The schedules Figure 6 compares, in column order.
DEFAULT_SCHEDULES: Tuple[RetrainSchedule, ...] = (
    RetrainSchedule.never(),
    RetrainSchedule.every_k_weeks(1),
    RetrainSchedule.drift_triggered(0.05),
)


@dataclass(frozen=True)
class StalenessStudyResult:
    """Per-(policy, schedule) staleness reports over one shared population."""

    feature: Feature
    utility_weight: float
    reports: Mapping[Tuple[str, str], StalenessReport]
    weeks: Tuple[int, ...]

    def report(self, policy: str, schedule: str) -> StalenessReport:
        """The :class:`StalenessReport` of one (policy, schedule) pair."""
        return self.reports[(policy, schedule)]

    def render(self) -> str:
        """Utility-vs-week table: one row per (policy, schedule)."""
        headers = (
            ["policy", "schedule"]
            + [f"w{week}" for week in self.weeks]
            + ["mean", "decay/week", "retrains"]
        )
        rows = []
        for (policy, schedule), report in self.reports.items():
            by_week = dict(zip(report.weeks, report.utilities, strict=True))
            slope = report.utility_decay_slope
            rows.append(
                [policy, schedule]
                + [by_week.get(week, "-") for week in self.weeks]
                + [
                    report.mean_utility,
                    "-" if slope is None else slope,
                    report.retrain_count,
                ]
            )
        return render_table(
            headers,
            rows,
            title=(
                f"Figure 6 — fused utility per deployed week "
                f"(w={self.utility_weight}), feature={self.feature.value}: "
                f"threshold staleness with/without retraining"
            ),
        )


def run_fig6(
    population: EnterprisePopulation,
    feature: Feature = Feature.TCP_CONNECTIONS,
    utility_weight: float = 0.4,
    schedules: Sequence[RetrainSchedule] = DEFAULT_SCHEDULES,
    train_week: int = 0,
    partial_groups: int = 8,
    percentile: float = 99.0,
) -> StalenessStudyResult:
    """Compute the staleness study on ``population``.

    Each policy trains 99th-percentile thresholds on ``train_week`` and is
    then evaluated over every remaining week under each retrain schedule.
    Populations of only two weeks yield a one-week (degenerate but valid)
    timeline; the study is most informative at the paper's five weeks.
    """
    require(len(schedules) > 0, "at least one schedule is required")
    require(
        population.config.num_weeks >= 2,
        "the staleness study needs at least two weeks of traffic",
    )
    protocol = DetectionProtocol(
        features=(feature,),
        train_week=train_week,
        test_week=train_week + 1,
        utility_weight=utility_weight,
    )
    reports = {}
    weeks: Optional[Tuple[int, ...]] = None
    for schedule in schedules:
        for policy in (
            HomogeneousPolicy(PercentileHeuristic(percentile)),
            FullDiversityPolicy(PercentileHeuristic(percentile)),
            PartialDiversityPolicy(PercentileHeuristic(percentile), num_groups=partial_groups),
        ):
            result = evaluate_timeline(population, policy, protocol, schedule)
            reports[(policy.name, schedule.name)] = staleness_report(result)
            weeks = result.week_indices
    return StalenessStudyResult(
        feature=feature,
        utility_weight=utility_weight,
        reports=reports,
        weeks=weeks if weeks is not None else (),
    )
