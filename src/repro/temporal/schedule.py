"""Re-optimisation schedules: when does the defender retrain its thresholds?

The paper's protocol trains thresholds once and applies them to the next
week.  On a drifting population that one-shot configuration goes stale, and
the defender's real decision is a *cadence*: never retrain (the paper),
retrain every ``k`` weeks (periodic maintenance windows), or retrain only
when a population-level distribution-shift statistic crosses a trigger
(drift-aware operations).  :class:`RetrainSchedule` names that policy as
plain data so timelines, sweeps and the result store can carry it around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import ValidationError, require

#: Schedule kinds understood by :class:`RetrainSchedule`.
RETRAIN_KINDS = ("never", "every-k-weeks", "drift-triggered")

#: Default trigger level of the drift-triggered schedule (mean absolute
#: log10 quantile shift — see :mod:`repro.temporal.statistic`).
DEFAULT_DRIFT_TRIGGER = 0.05


@dataclass(frozen=True)
class RetrainSchedule:
    """When, and on which rolling window, thresholds are re-optimised.

    Attributes
    ----------
    kind:
        One of :data:`RETRAIN_KINDS`.  ``RetrainSchedule("never")`` keeps the
        initial configuration for the whole timeline — evaluated week by
        week, its first test week is bit-identical to the one-shot protocol.
    period:
        For ``every-k-weeks``: retrain once the deployed configuration is
        ``period`` weeks old.
    threshold:
        For ``drift-triggered``: retrain when the population drift statistic
        (current training window vs the last completed week) exceeds this.
    window_weeks:
        Length of the rolling training window, in weeks.  A retrain at week
        ``w`` trains on weeks ``[w - window_weeks, w)``; the initial
        configuration trains on the protocol's training week (extended
        backwards by the window where history exists).
    """

    kind: str = "never"
    period: int = 1
    threshold: float = DEFAULT_DRIFT_TRIGGER
    window_weeks: int = 1

    def __post_init__(self) -> None:
        if self.kind not in RETRAIN_KINDS:
            raise ValidationError(
                f"schedule kind must be one of {list(RETRAIN_KINDS)}, got {self.kind!r}"
            )
        require(self.period >= 1, "schedule period must be >= 1 week")
        require(self.threshold >= 0.0, "schedule threshold must be non-negative")
        require(self.window_weeks >= 1, "schedule window_weeks must be >= 1")

    # ------------------------------------------------------------ constructors
    @classmethod
    def never(cls, window_weeks: int = 1) -> "RetrainSchedule":
        """Train once, deploy forever (the paper's protocol on a timeline)."""
        return cls(kind="never", window_weeks=window_weeks)

    @classmethod
    def every_k_weeks(cls, k: int, window_weeks: int = 1) -> "RetrainSchedule":
        """Periodic retraining: re-optimise once the deployment is ``k`` weeks old."""
        return cls(kind="every-k-weeks", period=k, window_weeks=window_weeks)

    @classmethod
    def drift_triggered(
        cls, threshold: float = DEFAULT_DRIFT_TRIGGER, window_weeks: int = 1
    ) -> "RetrainSchedule":
        """Retrain only when the population drift statistic crosses ``threshold``."""
        return cls(kind="drift-triggered", threshold=threshold, window_weeks=window_weeks)

    # --------------------------------------------------------------- decisions
    @property
    def name(self) -> str:
        """Display name carried into outcomes and the result store."""
        if self.kind == "every-k-weeks":
            return f"every-{self.period}-weeks"
        if self.kind == "drift-triggered":
            return f"drift-triggered@{self.threshold:g}"
        return self.kind

    @property
    def needs_drift_statistic(self) -> bool:
        """Whether the decision requires the population drift statistic."""
        return self.kind == "drift-triggered"

    def should_retrain(
        self, week: int, deployed_week: int, drift_statistic: Optional[float] = None
    ) -> bool:
        """Decide whether to re-optimise before evaluating ``week``.

        Parameters
        ----------
        week:
            The week about to be evaluated.
        deployed_week:
            The week the configuration currently in force was first deployed
            on (its age is ``week - deployed_week``).
        drift_statistic:
            The population-level distribution-shift statistic between the
            configuration's training window and the last *completed* week
            (the defender cannot peek at ``week`` itself).  Required by
            ``drift-triggered``; ignored otherwise.
        """
        require(week >= deployed_week, "week must not precede the deployment")
        if self.kind == "never" or week == deployed_week:
            return False
        if self.kind == "every-k-weeks":
            return (week - deployed_week) >= self.period
        require(
            drift_statistic is not None,
            "drift-triggered schedules need the population drift statistic",
        )
        return drift_statistic > self.threshold
