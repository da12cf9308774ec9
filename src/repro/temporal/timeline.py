"""Timeline evaluation: deploy, drift, (maybe) retrain, week after week.

:func:`evaluate_timeline` turns the one-shot train/test protocol into a
lifecycle.  Thresholds are trained once on the protocol's training week and
then *every remaining week of the population* is scored against whatever
configuration is in force that week; a
:class:`~repro.temporal.schedule.RetrainSchedule` decides when the
configuration is re-optimised on a rolling training window (warm-starting
any joint optimizer from the outgoing solution).

Cost model: the population is generated once (the engine's cache makes it
free across scenarios), training/threshold selection runs once per *retrain*
(not once per week), and each deployed week pays only the vectorized
measurement pass (:func:`~repro.core.evaluation.measure_assignment`).  A
W-week timeline under ``RetrainSchedule("never")`` therefore costs one
optimisation plus W cheap measurements — and its first test week is
bit-identical to :func:`~repro.core.experiment.evaluate_scenario`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.attacks.base import AttackBuilder
from repro.core.evaluation import (
    DetectionProtocol,
    PolicyEvaluation,
    detection_training_window_distributions,
    measure_assignment,
)
from repro.core.experiment import ScenarioOutcome, summarize_scenario
from repro.core.policies import ConfigurationPolicy
from repro.features.timeseries import FeatureMatrix
from repro.temporal.schedule import RetrainSchedule
from repro.telemetry import add_count, monotonic_now, trace_span
from repro.temporal.statistic import (
    drift_from_baseline,
    pooled_baseline_quantiles,
    weeks_covered,
)
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimelineWeek:
    """One deployed week of a timeline.

    Attributes
    ----------
    week:
        The evaluated (test) week.
    trained_weeks:
        The ``[start, end)`` training window of the configuration in force.
    deployed_week:
        The week that configuration was first deployed on.
    retrained:
        True when the configuration was re-optimised immediately before this
        week.
    drift_statistic:
        Population drift statistic the schedule consulted before this week —
        the last completed week compared against the training window of the
        configuration in force *at decision time*.  On a retrained week this
        is the value that triggered the retrain, measured against the
        outgoing window (the fresh configuration starts with zero measured
        drift).  None on the first deployed week and for schedules that
        never consult the statistic (``never`` / ``every-k-weeks``).
    evaluation:
        The full per-host measurement of this week.
    """

    week: int
    trained_weeks: Tuple[int, int]
    deployed_week: int
    retrained: bool
    drift_statistic: Optional[float]
    evaluation: PolicyEvaluation

    @property
    def weeks_since_retrain(self) -> int:
        """Age of the deployed configuration, in weeks (0 = fresh)."""
        return self.week - self.deployed_week


@dataclass(frozen=True)
class TimelineResult:
    """Everything one timeline evaluation produced.

    ``weeks`` is ordered by week index; ``training_cost_seconds`` totals the
    wall-clock spent building training distributions and selecting
    thresholds (initial deployment plus every retrain) — the quantity
    re-optimisation cadences trade against utility.
    """

    policy_name: str
    schedule: RetrainSchedule
    protocol: DetectionProtocol
    weeks: Tuple[TimelineWeek, ...]
    retrain_weeks: Tuple[int, ...]
    training_cost_seconds: float

    def __post_init__(self) -> None:
        require(len(self.weeks) > 0, "timeline must cover at least one week")

    @property
    def retrain_count(self) -> int:
        """Number of re-optimisations after the initial deployment."""
        return len(self.retrain_weeks)

    @property
    def week_indices(self) -> Tuple[int, ...]:
        """The evaluated week indices, in order."""
        return tuple(entry.week for entry in self.weeks)

    def week_entry(self, week: int) -> TimelineWeek:
        """The :class:`TimelineWeek` for ``week``."""
        for entry in self.weeks:
            if entry.week == week:
                return entry
        raise KeyError(f"week {week} is not part of the timeline {self.week_indices}")

    def week_outcome(self, week: int, attack_prevalence: float = 0.01) -> ScenarioOutcome:
        """The plain one-week :class:`ScenarioOutcome` of ``week``.

        For a ``never`` schedule and ``week == protocol.test_week`` this is
        bit-identical to the one-shot
        :func:`~repro.core.experiment.evaluate_scenario` summary.
        """
        return summarize_scenario(
            self.week_entry(week).evaluation, attack_prevalence=attack_prevalence
        )

    def utilities(self, weight: Optional[float] = None) -> Dict[int, float]:
        """Per-week population-mean fused utility."""
        return {
            entry.week: entry.evaluation.mean_utility(weight) for entry in self.weeks
        }

    def mean_utility(self, weight: Optional[float] = None) -> float:
        """Timeline-mean fused utility (the retrain-cadence headline metric)."""
        return float(np.mean(list(self.utilities(weight).values())))

    def utility_decay_slope(self, weight: Optional[float] = None) -> Optional[float]:
        """OLS slope of per-week utility against configuration age (weeks).

        Negative values quantify decay: utility lost per week of threshold
        staleness.  ``None`` when the timeline never varies the age (e.g. a
        weekly retrain keeps every deployed configuration fresh).
        """
        ages = np.asarray([entry.weeks_since_retrain for entry in self.weeks], dtype=float)
        if np.unique(ages).size < 2:
            return None
        values = np.asarray(
            [entry.evaluation.mean_utility(weight) for entry in self.weeks]
        )
        return float(np.polyfit(ages, values, 1)[0])


def _initial_window(protocol: DetectionProtocol, schedule: RetrainSchedule) -> Tuple[int, int]:
    """The first deployment's training window: the protocol's training week,
    extended backwards by the schedule's window where history exists."""
    end = protocol.train_week + 1
    start = max(0, end - schedule.window_weeks)
    return start, end


def evaluate_timeline(
    population: Union[EnterprisePopulation, Mapping[int, FeatureMatrix]],
    policy: ConfigurationPolicy,
    protocol: DetectionProtocol,
    schedule: RetrainSchedule,
    attack_builder: Optional[AttackBuilder] = None,
    end_week: Optional[int] = None,
) -> TimelineResult:
    """Evaluate ``policy`` over every deployed week of the population.

    Parameters
    ----------
    population:
        An :class:`EnterprisePopulation` or a plain per-host matrix mapping
        covering at least ``protocol.test_week + 1`` whole weeks.
    policy, protocol:
        Exactly as :func:`~repro.core.evaluation.evaluate_policy`; the
        protocol's train/test weeks define the *initial* deployment, and the
        timeline then runs from ``protocol.test_week`` through the last
        covered week (exclusive ``end_week`` override).
    schedule:
        The :class:`RetrainSchedule` deciding when thresholds are
        re-optimised (on a rolling ``schedule.window_weeks`` window, with
        joint optimizers warm-started from the outgoing solution).
    attack_builder:
        Attack builder, as in :func:`evaluate_policy`.  Builders
        carrying a truthy ``tracks_schedule`` attribute receive the
        thresholds *currently in force* on each attacked week (the
        schedule-aware mimic); plain builders receive the initial
        deployment's thresholds — an attacker that profiled the victim once
        keeps evading a configuration the defender may since have replaced.
    """
    matrices = (
        population.matrices()
        if isinstance(population, EnterprisePopulation)
        else dict(population)
    )
    require(len(matrices) > 0, "matrices must cover at least one host")
    horizon = weeks_covered(matrices)
    last_week = horizon if end_week is None else int(end_week)
    require(last_week <= horizon, f"end_week {last_week} exceeds the covered {horizon} week(s)")
    first_week = protocol.test_week
    require(
        first_week < last_week,
        f"timeline needs at least one deployed week: test week {first_week} "
        f"with {last_week} covered week(s)",
    )
    features = protocol.features
    tracks_schedule = bool(getattr(attack_builder, "tracks_schedule", False))

    timeline_span = trace_span(
        "temporal.timeline",
        policy=policy.name,
        schedule=schedule.name,
        first_week=first_week,
        last_week=last_week,
    )
    with timeline_span:
        training_cost = 0.0
        started = monotonic_now()
        window = _initial_window(protocol, schedule)
        with trace_span("temporal.train", window_start=window[0], window_end=window[1]):
            training = detection_training_window_distributions(
                matrices, features, window[0], window[1],
                active_bins_only=protocol.train_on_active_bins,
            )
            assignment = policy.assign(
                training,
                grouping_statistic_percentile=protocol.grouping_statistic_percentile,
                fusion=protocol.fusion,
            )
        training_cost += monotonic_now() - started
        initial_assignment = assignment
        deployed_week = first_week
        logger.info(
            "timeline start: policy %s, schedule %s, weeks %d..%d",
            policy.name,
            schedule.name,
            first_week,
            last_week - 1,
        )
        # The pooled baseline only changes on retrain, so compute it once per
        # deployed configuration — and not at all for schedules that never
        # consult the drift statistic.
        baseline = (
            pooled_baseline_quantiles(matrices, features, window)
            if schedule.needs_drift_statistic
            else None
        )

        weeks: List[TimelineWeek] = []
        retrain_weeks: List[int] = []
        for week in range(first_week, last_week):
            with trace_span("temporal.week", week=week) as week_span:
                drift_value: Optional[float] = None
                if week > first_week:
                    if baseline is not None:
                        # Compare the deployed configuration's training window
                        # against the last *completed* week — the defender never
                        # peeks at the week it is about to score.
                        drift_value = drift_from_baseline(matrices, baseline, week - 1)
                    if schedule.should_retrain(week, deployed_week, drift_value):
                        started = monotonic_now()
                        window = (max(0, week - schedule.window_weeks), week)
                        with trace_span("temporal.retrain", week=week):
                            training = detection_training_window_distributions(
                                matrices, features, window[0], window[1],
                                active_bins_only=protocol.train_on_active_bins,
                            )
                            assignment = policy.assign(
                                training,
                                grouping_statistic_percentile=(
                                    protocol.grouping_statistic_percentile
                                ),
                                fusion=protocol.fusion,
                                warm_start=assignment,
                            )
                        training_cost += monotonic_now() - started
                        deployed_week = week
                        retrain_weeks.append(week)
                        add_count("temporal.retrains")
                        logger.info(
                            "retrained on week %d (drift statistic %s)",
                            week,
                            "n/a" if drift_value is None else f"{drift_value:.4f}",
                        )
                        if baseline is not None:
                            baseline = pooled_baseline_quantiles(matrices, features, window)

                week_protocol = replace(protocol, train_week=window[1] - 1, test_week=week)
                performances = measure_assignment(
                    matrices,
                    assignment,
                    week_protocol,
                    attack_builder=attack_builder,
                    attack_assignment=None if tracks_schedule else initial_assignment,
                )
                evaluation = PolicyEvaluation(
                    policy_name=policy.name,
                    protocol=week_protocol,
                    assignment=assignment,
                    performances=performances,
                )
                entry = TimelineWeek(
                    week=week,
                    trained_weeks=window,
                    deployed_week=deployed_week,
                    retrained=bool(retrain_weeks and retrain_weeks[-1] == week),
                    drift_statistic=drift_value,
                    evaluation=evaluation,
                )
                week_span.set(retrained=entry.retrained)
                add_count("temporal.weeks_measured")
                weeks.append(entry)

    return TimelineResult(
        policy_name=policy.name,
        schedule=schedule,
        protocol=protocol,
        weeks=tuple(weeks),
        retrain_weeks=tuple(retrain_weeks),
        training_cost_seconds=training_cost,
    )


def timeline_outcome(
    result: TimelineResult, attack_prevalence: float = 0.01
) -> ScenarioOutcome:
    """Condense a :class:`TimelineResult` into one storable :class:`ScenarioOutcome`.

    Headline metrics aggregate over the deployed weeks — rates and utilities
    as week means, alarm totals as sums — so ``mean_utility`` is the
    timeline-mean fused utility that retrain cadences compete on.  The
    ``timeline`` table keeps the full per-week trajectory (including each
    week's drift statistic and configuration age), the ``per_feature`` table
    aggregates per-feature metrics the same way, ``distinct_thresholds``
    describes the final deployed configuration, optimizer iterations sum over
    every (re)optimisation, and ``schedule``/``retrain_*``/
    ``utility_decay_slope``/``training_cost_seconds`` carry the staleness
    study's provenance (result-store schema v4).
    """
    per_week = {
        entry.week: summarize_scenario(entry.evaluation, attack_prevalence=attack_prevalence)
        for entry in result.weeks
    }
    outcomes = [per_week[entry.week] for entry in result.weeks]
    first = outcomes[0]
    timeline_table: Dict[str, Dict[str, Any]] = {}
    for entry, outcome in zip(result.weeks, outcomes, strict=True):
        timeline_table[str(entry.week)] = {
            "mean_utility": outcome.mean_utility,
            "median_utility": outcome.median_utility,
            "mean_false_positive_rate": outcome.mean_false_positive_rate,
            "mean_false_negative_rate": outcome.mean_false_negative_rate,
            "mean_detection_rate": outcome.mean_detection_rate,
            "mean_f_measure": outcome.mean_f_measure,
            "total_false_alarms": outcome.total_false_alarms,
            "fraction_raising_alarm": outcome.fraction_raising_alarm,
            "weeks_since_retrain": entry.weeks_since_retrain,
            "retrained": entry.retrained,
            "drift_statistic": entry.drift_statistic,
        }
    # Aggregate per-feature metrics exactly like the fused headline —
    # week means, alarm totals as sums — so a single-feature any-fusion
    # record's per_feature table agrees with its top-level numbers.
    # distinct_thresholds describes the final deployed configuration.
    per_feature: Dict[str, Dict[str, float]] = {}
    for name in outcomes[-1].per_feature:
        weekly = [outcome.per_feature[name] for outcome in outcomes]
        aggregated = {
            key: float(np.mean([week[key] for week in weekly]))
            for key in weekly[0]
            if key not in ("total_false_alarms", "distinct_thresholds")
        }
        aggregated["total_false_alarms"] = int(
            sum(week["total_false_alarms"] for week in weekly)
        )
        aggregated["distinct_thresholds"] = weekly[-1]["distinct_thresholds"]
        per_feature[name] = aggregated
    iterations = [
        entry.evaluation.optimization.iterations
        for entry in result.weeks
        if entry.retrained and entry.evaluation.optimization is not None
    ]
    last_optimization = result.weeks[-1].evaluation.optimization
    return ScenarioOutcome(
        policy_name=first.policy_name,
        feature=first.feature,
        num_hosts=first.num_hosts,
        mean_utility=float(np.mean([outcome.mean_utility for outcome in outcomes])),
        median_utility=float(np.mean([outcome.median_utility for outcome in outcomes])),
        mean_false_positive_rate=float(
            np.mean([outcome.mean_false_positive_rate for outcome in outcomes])
        ),
        mean_false_negative_rate=float(
            np.mean([outcome.mean_false_negative_rate for outcome in outcomes])
        ),
        mean_detection_rate=float(
            np.mean([outcome.mean_detection_rate for outcome in outcomes])
        ),
        mean_f_measure=float(np.mean([outcome.mean_f_measure for outcome in outcomes])),
        total_false_alarms=int(sum(outcome.total_false_alarms for outcome in outcomes)),
        fraction_raising_alarm=float(
            np.mean([outcome.fraction_raising_alarm for outcome in outcomes])
        ),
        distinct_thresholds=outcomes[-1].distinct_thresholds,
        fusion=first.fusion,
        num_features=first.num_features,
        per_feature=per_feature,
        optimizer=first.optimizer,
        objective_value=(
            last_optimization.objective_value if last_optimization is not None else None
        ),
        optimizer_iterations=first.optimizer_iterations + int(sum(iterations)),
        schedule=result.schedule.name,
        num_timeline_weeks=len(result.weeks),
        retrain_count=result.retrain_count,
        retrain_weeks=result.retrain_weeks,
        utility_decay_slope=result.utility_decay_slope(),
        timeline=timeline_table,
        training_cost_seconds=result.training_cost_seconds,
    )
