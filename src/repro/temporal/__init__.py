"""Temporal detection studies: rolling re-optimisation and threshold staleness.

The paper trains thresholds on one week and evaluates them on the next,
silently assuming the configuration stays fresh.  On a drifting enterprise
it does not — so this subsystem turns evaluation into a *timeline*:

* :class:`RetrainSchedule` — when the defender re-optimises (never, every
  ``k`` weeks, or when a population-level drift statistic crosses a
  trigger), and on which rolling training window;
* :mod:`repro.temporal.statistic` — the cheap pooled-quantile
  distribution-shift statistic the drift-triggered schedule watches;
* :func:`evaluate_timeline` — score every deployed week against the
  configuration in force that week, retraining per the schedule with
  warm-started optimizers (one optimisation per retrain, not per week);
* :class:`StalenessReport` / :func:`staleness_report` — the per-week utility
  trajectory, decay slope and retrain cost a cadence study compares;
* :func:`timeline_outcome` — the schema-v4 :class:`~repro.core.experiment.ScenarioOutcome`
  the sweep machinery stores.

``RetrainSchedule("never")``'s first test week reproduces the one-shot
:func:`~repro.core.experiment.evaluate_scenario` bit for bit.
"""

from repro.temporal.schedule import (
    DEFAULT_DRIFT_TRIGGER,
    RETRAIN_KINDS,
    RetrainSchedule,
)
from repro.temporal.staleness import StalenessReport, staleness_report
from repro.temporal.statistic import DEFAULT_DRIFT_QUANTILES, weeks_covered
from repro.temporal.timeline import (
    TimelineResult,
    TimelineWeek,
    evaluate_timeline,
    timeline_outcome,
)

__all__ = [
    "DEFAULT_DRIFT_TRIGGER",
    "DEFAULT_DRIFT_QUANTILES",
    "RETRAIN_KINDS",
    "RetrainSchedule",
    "StalenessReport",
    "staleness_report",
    "weeks_covered",
    "TimelineResult",
    "TimelineWeek",
    "evaluate_timeline",
    "timeline_outcome",
]
