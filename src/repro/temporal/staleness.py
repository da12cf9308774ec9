"""Threshold-staleness reporting: how fast does a configuration go stale?

A :class:`StalenessReport` condenses one
:class:`~repro.temporal.timeline.TimelineResult` into the numbers a
re-optimisation cadence study compares: the per-week fused-utility
trajectory, the utility-decay slope (utility lost per week of configuration
age), and what the schedule cost (retrain count and wall-clock spent
re-optimising).  ``render()`` prints the utility-vs-week table the
``repro timeline`` CLI and the Figure-6 experiment show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.experiments.report import render_table
from repro.temporal.timeline import TimelineResult
from repro.utils.validation import require


@dataclass(frozen=True)
class StalenessReport:
    """Scalar staleness metrics of one evaluated timeline.

    Attributes
    ----------
    policy, schedule:
        Display names of the evaluated policy and retrain schedule.
    weeks:
        The deployed week indices, in order.
    utilities:
        Population-mean fused utility per deployed week.
    ages:
        Configuration age (weeks since last retrain) per deployed week.
    drift_statistics:
        Population drift statistic per deployed week, as consulted by the
        schedule (None on the first week and for schedules that never
        consult it).
    retrain_weeks:
        Weeks on which the schedule re-optimised.
    utility_decay_slope:
        OLS slope of utility against configuration age; ``None`` when the
        age never varies.  Negative = utility lost per week of staleness.
    training_cost_seconds:
        Total wall-clock spent training/selecting thresholds across the
        timeline (initial deployment + retrains).
    """

    policy: str
    schedule: str
    weeks: Tuple[int, ...]
    utilities: Tuple[float, ...]
    ages: Tuple[int, ...]
    drift_statistics: Tuple[Optional[float], ...]
    retrain_weeks: Tuple[int, ...]
    utility_decay_slope: Optional[float]
    training_cost_seconds: float

    def __post_init__(self) -> None:
        require(
            len(self.weeks) == len(self.utilities) == len(self.ages) == len(self.drift_statistics),
            "per-week fields must align",
        )
        require(len(self.weeks) > 0, "report must cover at least one week")

    @property
    def retrain_count(self) -> int:
        """Number of re-optimisations after the initial deployment."""
        return len(self.retrain_weeks)

    @property
    def mean_utility(self) -> float:
        """Timeline-mean fused utility."""
        return float(np.mean(self.utilities))

    def render(self) -> str:
        """The utility-vs-week staleness table."""
        rows = []
        for week, utility, age, drift in zip(
            self.weeks, self.utilities, self.ages, self.drift_statistics, strict=True
        ):
            rows.append(
                [
                    week,
                    utility,
                    age,
                    "yes" if week in self.retrain_weeks else "",
                    "-" if drift is None else drift,
                ]
            )
        slope = "n/a" if self.utility_decay_slope is None else f"{self.utility_decay_slope:+.4f}"
        title = (
            f"Threshold staleness — policy={self.policy}, schedule={self.schedule} "
            f"(mean utility {self.mean_utility:.4f}, decay slope {slope}/week, "
            f"{self.retrain_count} retrain(s))"
        )
        return render_table(
            ["week", "mean_utility", "age_weeks", "retrained", "drift_stat"],
            rows,
            title=title,
        )


def staleness_report(result: TimelineResult, weight: Optional[float] = None) -> StalenessReport:
    """Build the :class:`StalenessReport` of one timeline evaluation."""
    return StalenessReport(
        policy=result.policy_name,
        schedule=result.schedule.name,
        weeks=result.week_indices,
        utilities=tuple(
            entry.evaluation.mean_utility(weight) for entry in result.weeks
        ),
        ages=tuple(entry.weeks_since_retrain for entry in result.weeks),
        drift_statistics=tuple(entry.drift_statistic for entry in result.weeks),
        retrain_weeks=result.retrain_weeks,
        utility_decay_slope=result.utility_decay_slope(weight),
        training_cost_seconds=result.training_cost_seconds,
    )
