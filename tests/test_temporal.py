"""Tests of the temporal subsystem: drift models, schedules, timelines, staleness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.evaluation import (
    DetectionProtocol,
    detection_training_distributions,
    detection_training_window_distributions,
)
from repro.core.experiment import ScenarioOutcome, evaluate_scenario
from repro.core.policies import HomogeneousPolicy, PartialDiversityPolicy
from repro.core.thresholds import PercentileHeuristic, UtilityHeuristic
from repro.engine import PopulationCache
from repro.features.definitions import Feature
from repro.features.timeseries import PopulationFrame
from repro.optimize import CoordinateAscentOptimizer
from repro.temporal import (
    DEFAULT_DRIFT_QUANTILES,
    RetrainSchedule,
    evaluate_timeline,
    staleness_report,
    timeline_outcome,
    weeks_covered,
)
from repro.temporal.statistic import drift_from_baseline, pooled_baseline_quantiles
from repro.utils.records import parse, plain
from repro.utils.rng import RandomSource
from repro.utils.validation import ValidationError
from repro.workload.drift import DriftComponent, DriftModel
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise
from repro.workload.profiles import sample_host_profile

from helpers import population_drift_statistic, week_range

PROTOCOL = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))


def _population(num_hosts=16, num_weeks=4, seed=99, **kwargs):
    return generate_enterprise(
        EnterpriseConfig(num_hosts=num_hosts, num_weeks=num_weeks, seed=seed, **kwargs)
    )


def _policy(percentile=99.0):
    return HomogeneousPolicy(PercentileHeuristic(percentile))


@pytest.fixture(scope="module")
def drifting_population():
    return _population()


# --------------------------------------------------------------------- drift
class TestDriftModels:
    def _profile(self, host_id=3):
        return sample_host_profile(host_id=host_id, random_source=RandomSource(seed=5))

    def test_component_kinds_validated(self):
        with pytest.raises(ValidationError):
            DriftComponent(kind="weather")

    def test_empty_model_is_falsy_and_identity(self):
        model = DriftModel()
        assert not model
        assert model.name == "none"
        rng = np.random.default_rng(0)
        assert np.array_equal(
            model.week_multipliers(self._profile(), 5, rng), np.ones(5)
        )

    def test_seasonal_is_deterministic_and_periodic(self):
        component = DriftComponent(kind="seasonal", scale=1.0, period_weeks=4)
        a = component.week_multipliers(self._profile(), 8, np.random.default_rng(0))
        b = component.week_multipliers(self._profile(), 8, np.random.default_rng(99))
        assert np.array_equal(a, b)  # no randomness consumed
        assert a[0] == pytest.approx(a[4])

    def test_churn_and_turnover_leave_week0_at_baseline(self):
        for kind in ("role-churn", "fleet-turnover"):
            component = DriftComponent(kind=kind, probability=1.0, scale=2.0)
            multipliers = component.week_multipliers(
                self._profile(), 4, np.random.default_rng(7)
            )
            assert multipliers[0] == 1.0
            assert np.any(multipliers[1:] != 1.0)

    def test_flash_crowd_defaults_to_middle_week(self):
        component = DriftComponent(kind="flash-crowd", magnitude=3.0, scale=1.0)
        multipliers = component.week_multipliers(
            self._profile(), 5, np.random.default_rng(0)
        )
        assert multipliers[2] == pytest.approx(3.0)
        assert np.count_nonzero(multipliers != 1.0) == 1

    def test_composition_is_componentwise_product(self):
        profile = self._profile()
        seasonal = DriftComponent(kind="seasonal", scale=0.7)
        flash = DriftComponent(kind="flash-crowd", weeks=(1,), magnitude=2.0)
        composed = DriftModel(components=(seasonal, flash))
        rng = np.random.default_rng(0)
        expected = seasonal.week_multipliers(profile, 4, np.random.default_rng(1)) * (
            flash.week_multipliers(profile, 4, np.random.default_rng(2))
        )
        assert np.allclose(composed.week_multipliers(profile, 4, rng), expected)

    def test_from_kinds_rejects_duplicates_and_roundtrips(self):
        model = DriftModel.from_kinds("seasonal+flash-crowd", scale=1.5, weeks=(2,))
        assert model.name == "seasonal+flash-crowd"
        assert parse(DriftModel, plain(model), "drift") == model
        assert DriftModel.from_kinds("none") == DriftModel()
        with pytest.raises(ValidationError):
            DriftModel.from_kinds("seasonal+seasonal")

    def test_drifted_population_differs_but_default_is_unchanged(self):
        base = _population(num_hosts=4, num_weeks=3, seed=21)
        drifted = _population(
            num_hosts=4,
            num_weeks=3,
            seed=21,
            drift=DriftModel.from_kinds("flash-crowd", weeks=(1,), magnitude=4.0),
        )
        feature = Feature.TCP_CONNECTIONS
        week0_equal = np.array_equal(
            base.matrix(0).week(0).series(feature).values,
            drifted.matrix(0).week(0).series(feature).values,
        )
        week1_equal = np.array_equal(
            base.matrix(0).week(1).series(feature).values,
            drifted.matrix(0).week(1).series(feature).values,
        )
        assert week0_equal  # surge week only
        assert not week1_equal

    def test_population_cache_roundtrip_with_drift(self, tmp_path):
        config = EnterpriseConfig(
            num_hosts=3,
            num_weeks=2,
            seed=5,
            drift=DriftModel.from_kinds("role-churn", probability=0.5),
        )
        population = generate_enterprise(config)
        cache = PopulationCache(tmp_path)
        cache.store(population)
        loaded = cache.load(config)
        assert loaded.config == config
        for host_id in population.host_ids:
            for feature in population.matrix(host_id).features:
                assert np.array_equal(
                    loaded.matrix(host_id).series(feature).values,
                    population.matrix(host_id).series(feature).values,
                )


# ------------------------------------------------------------------ schedule
class TestRetrainSchedule:
    def test_kind_validated(self):
        with pytest.raises(ValidationError):
            RetrainSchedule("sometimes")

    def test_never_never_retrains(self):
        schedule = RetrainSchedule("never")
        assert not schedule.should_retrain(10, 1, drift_statistic=1e9)

    def test_every_k_weeks_retrains_on_age(self):
        schedule = RetrainSchedule.every_k_weeks(2)
        assert not schedule.should_retrain(1, 1)
        assert not schedule.should_retrain(2, 1)
        assert schedule.should_retrain(3, 1)

    def test_drift_triggered_needs_statistic(self):
        schedule = RetrainSchedule.drift_triggered(0.1)
        with pytest.raises(ValidationError):
            schedule.should_retrain(2, 1)
        assert schedule.should_retrain(2, 1, drift_statistic=0.2)
        assert not schedule.should_retrain(2, 1, drift_statistic=0.05)

    def test_constructors_carry_their_parameters(self):
        assert RetrainSchedule.never() == RetrainSchedule("never")
        assert RetrainSchedule.never(window_weeks=2) == RetrainSchedule("never", window_weeks=2)
        assert RetrainSchedule.every_k_weeks(3, window_weeks=2) == RetrainSchedule(
            "every-k-weeks", period=3, window_weeks=2
        )
        assert RetrainSchedule.drift_triggered(0.25, window_weeks=3) == RetrainSchedule(
            "drift-triggered", threshold=0.25, window_weeks=3
        )
        with pytest.raises(ValidationError, match="window_weeks"):
            RetrainSchedule.never(window_weeks=0)
        with pytest.raises(ValidationError, match="period"):
            RetrainSchedule.every_k_weeks(0)

    def test_names(self):
        assert RetrainSchedule("never").name == "never"
        assert RetrainSchedule.every_k_weeks(3).name == "every-3-weeks"
        assert RetrainSchedule.drift_triggered(0.25).name == "drift-triggered@0.25"


# ----------------------------------------------------------------- statistic
class TestDriftStatistic:
    def test_zero_against_own_window(self, drifting_population):
        matrices = drifting_population.matrices()
        value = population_drift_statistic(
            matrices, (Feature.TCP_CONNECTIONS,), baseline_weeks=(1, 2), week=1
        )
        assert value == pytest.approx(0.0)

    def test_grows_with_drift(self):
        stationary = _population(
            num_hosts=10, num_weeks=3, seed=4, week_drift_scale=0.0, with_maintenance=False
        )
        drifting = _population(
            num_hosts=10,
            num_weeks=3,
            seed=4,
            week_drift_scale=0.0,
            with_maintenance=False,
            drift=DriftModel.from_kinds("flash-crowd", weeks=(2,), magnitude=5.0),
        )
        features = (Feature.TCP_CONNECTIONS,)
        calm = population_drift_statistic(
            stationary.matrices(), features, baseline_weeks=(0, 1), week=2
        )
        loud = population_drift_statistic(
            drifting.matrices(), features, baseline_weeks=(0, 1), week=2
        )
        assert loud > calm

    def test_frame_equals_plain_dict(self, drifting_population, tmp_path):
        """On a cached population's frame the statistic reads one view per window."""
        cache = PopulationCache(tmp_path)
        cache.store(drifting_population)
        frame = cache.load(drifting_population.config).matrices()
        assert isinstance(frame, PopulationFrame)
        plain = dict(frame)
        features = (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS)
        for window in ((0, 1), (0, 2), (1, 3)):
            on_frame = pooled_baseline_quantiles(frame, features, window)
            on_dict = pooled_baseline_quantiles(plain, features, window)
            for feature in features:
                # The statistic's definition: percentiles of every host's window, concatenated.
                pooled = np.concatenate(
                    [week_range(m, *window).series(feature).values for m in plain.values()]
                )
                expected = np.percentile(pooled, DEFAULT_DRIFT_QUANTILES)
                assert on_frame[feature].tobytes() == on_dict[feature].tobytes()
                assert on_frame[feature].tobytes() == expected.tobytes()
            for week in range(window[1], 4):
                assert drift_from_baseline(frame, on_frame, week) == (
                    drift_from_baseline(plain, on_dict, week)
                )
        assert population_drift_statistic(frame, features, (0, 2), 3) == (
            population_drift_statistic(drifting_population.matrices(), features, (0, 2), 3)
        )

    def test_weeks_covered_matches_config(self, drifting_population):
        assert weeks_covered(drifting_population.matrices()) == 4


# ------------------------------------------------------- week-range slicing
class TestWeekRangeValidation:
    def test_out_of_range_week_raises_with_range(self, drifting_population):
        matrix = drifting_population.matrix(drifting_population.host_ids[0])
        with pytest.raises(ValueError, match=r"valid week indices are 0\.\.3"):
            matrix.week(7)
        with pytest.raises(ValueError, match="out of range"):
            matrix.series(Feature.TCP_CONNECTIONS).week(4)

    def test_week_range_slices_contiguously(self, drifting_population):
        matrix = drifting_population.matrix(drifting_population.host_ids[0])
        window = week_range(matrix, 1, 3)
        one = matrix.week(1).series(Feature.TCP_CONNECTIONS).values
        two = matrix.week(2).series(Feature.TCP_CONNECTIONS).values
        assert np.array_equal(
            window.series(Feature.TCP_CONNECTIONS).values, np.concatenate([one, two])
        )
        with pytest.raises(ValueError, match="at least one week"):
            week_range(matrix, 2, 2)

    def test_training_window_distributions_validate_range(self, drifting_population):
        matrices = drifting_population.matrices()
        with pytest.raises(ValueError, match="out of range"):
            detection_training_window_distributions(
                matrices, (Feature.TCP_CONNECTIONS,), 4, 5
            )

    def test_single_week_window_matches_single_week_helper(self, drifting_population):
        matrices = drifting_population.matrices()
        features = (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS)
        windowed = detection_training_window_distributions(matrices, features, 1, 2)
        single = detection_training_distributions(matrices, features, 1)
        for feature in features:
            for host_id in matrices:
                assert windowed[feature][host_id].percentile(99) == pytest.approx(
                    single[feature][host_id].percentile(99)
                )


# ------------------------------------------------------------------ timeline
class TestTimeline:
    def test_never_first_week_bit_identical_to_one_shot(self, drifting_population):
        oneshot = evaluate_scenario(drifting_population, _policy(), PROTOCOL)
        timeline = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule("never")
        )
        assert timeline.week_outcome(1).to_dict() == oneshot.to_dict()

    def test_timeline_covers_every_remaining_week(self, drifting_population):
        timeline = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule("never")
        )
        assert timeline.week_indices == (1, 2, 3)
        assert timeline.retrain_count == 0
        assert timeline.training_cost_seconds > 0.0

    def test_every_k_weeks_retrains_at_expected_weeks(self, drifting_population):
        timeline = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule.every_k_weeks(2)
        )
        assert timeline.retrain_weeks == (3,)
        entry = timeline.week_entry(3)
        assert entry.retrained and entry.trained_weeks == (2, 3)
        assert timeline.week_entry(2).weeks_since_retrain == 1

    def test_huge_trigger_threshold_equals_never(self, drifting_population):
        never = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule("never")
        )
        triggered = evaluate_timeline(
            drifting_population,
            _policy(),
            PROTOCOL,
            RetrainSchedule.drift_triggered(threshold=1e6),
        )
        assert triggered.retrain_count == 0
        assert triggered.utilities() == never.utilities()

    def test_rolling_window_retrain_uses_window(self, drifting_population):
        timeline = evaluate_timeline(
            drifting_population,
            _policy(),
            PROTOCOL,
            RetrainSchedule.every_k_weeks(1, window_weeks=2),
        )
        assert timeline.week_entry(3).trained_weeks == (1, 3)

    def test_schedule_aware_attacker_sees_current_thresholds(self, drifting_population):
        seen = {}

        def recording_builder(batch):
            thresholds = batch.thresholds[Feature.TCP_CONNECTIONS]
            for host_id, threshold in zip(batch.host_ids, thresholds, strict=True):
                seen.setdefault(host_id, []).append(float(threshold))
            return None  # noqa: RET501  # None is the builder contract for "no attack"

        # Plain builder: always handed the initial deployment's thresholds.
        evaluate_timeline(
            drifting_population,
            _policy(),
            PROTOCOL,
            RetrainSchedule.every_k_weeks(1),
            attack_builder=recording_builder,
        )
        host = drifting_population.host_ids[0]
        assert len(set(seen[host])) == 1

        seen.clear()
        recording_builder.tracks_schedule = True
        timeline = evaluate_timeline(
            drifting_population,
            _policy(),
            PROTOCOL,
            RetrainSchedule.every_k_weeks(1),
            attack_builder=recording_builder,
        )
        assert timeline.retrain_count == 2
        # The schedule-tracking attacker sees the thresholds move as the
        # defender retrains on the drifting weeks.
        assert len(set(seen[host])) > 1

    def test_warm_start_never_hurts_the_objective(self, drifting_population):
        features = (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS)
        optimizer = CoordinateAscentOptimizer(weight=0.4, num_candidates=12)
        policy = PartialDiversityPolicy(
            UtilityHeuristic(weight=0.4), optimizer=optimizer
        )
        matrices = drifting_population.matrices()
        previous = policy.assign(
            detection_training_distributions(matrices, features, 0)
        )
        training = detection_training_distributions(matrices, features, 2)
        cold = policy.assign(training)
        warm = policy.assign(training, warm_start=previous)
        assert warm.optimization.objective_value >= cold.optimization.objective_value - 1e-12

    def test_timeline_outcome_round_trips(self, drifting_population):
        timeline = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule.every_k_weeks(1)
        )
        outcome = timeline_outcome(timeline)
        assert outcome.schedule == "every-1-weeks"
        assert outcome.num_timeline_weeks == 3
        assert outcome.retrain_count == 2
        assert set(outcome.timeline) == {"1", "2", "3"}
        assert outcome.mean_utility == pytest.approx(timeline.mean_utility())
        # per_feature aggregates over the same weeks as the fused headline,
        # so for a single-feature any-fusion protocol the two must agree.
        per_feature = outcome.per_feature[Feature.TCP_CONNECTIONS.value]
        assert per_feature["mean_utility"] == pytest.approx(outcome.mean_utility)
        assert per_feature["total_false_alarms"] == outcome.total_false_alarms
        rebuilt = ScenarioOutcome.from_dict(outcome.to_dict())
        assert rebuilt == outcome

    def test_one_shot_outcome_defaults_stay_one_shot(self, drifting_population):
        outcome = evaluate_scenario(drifting_population, _policy(), PROTOCOL)
        assert outcome.schedule == "one-shot"
        assert outcome.num_timeline_weeks == 0
        assert outcome.timeline == {}

    def test_single_week_population_rejected(self):
        population = _population(num_hosts=3, num_weeks=2, seed=1)
        with pytest.raises(ValidationError, match="at least one deployed week"):
            evaluate_timeline(
                population,
                _policy(),
                PROTOCOL,
                RetrainSchedule("never"),
                end_week=1,
            )


# ----------------------------------------------------------------- staleness
class TestStaleness:
    def test_report_fields_and_render(self, drifting_population):
        timeline = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule("never")
        )
        report = staleness_report(timeline)
        assert report.weeks == (1, 2, 3)
        assert report.ages == (0, 1, 2)
        assert report.retrain_count == 0
        assert report.utility_decay_slope is not None
        assert report.mean_utility == pytest.approx(timeline.mean_utility())
        rendered = report.render()
        assert "schedule=never" in rendered
        assert "decay slope" in rendered

    def test_decay_slope_none_when_age_constant(self, drifting_population):
        timeline = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule.every_k_weeks(1)
        )
        assert timeline.utility_decay_slope() is None

    def test_stale_thresholds_decay_under_drift(self, drifting_population):
        timeline = evaluate_timeline(
            drifting_population, _policy(), PROTOCOL, RetrainSchedule("never")
        )
        # The drifting population makes the frozen configuration bleed
        # utility: the decay slope is negative.
        assert timeline.utility_decay_slope() < 0.0


# ---------------------------------------------------------------- properties
class TestTemporalProperties:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        drift_scale=st.floats(min_value=1.0, max_value=3.0),
        num_hosts=st.integers(min_value=16, max_value=32),
        num_weeks=st.integers(min_value=4, max_value=5),
    )
    def test_weekly_retrain_never_worse_than_never(
        self, seed, drift_scale, num_hosts, num_weeks
    ):
        """every_k_weeks(1) >= never in mean fused utility under positive drift.

        The bounds keep the timeline in the regime where drift displacement
        dominates single-week sampling noise (scale >= 1, >= 3 deployed
        weeks, >= 16 hosts); at near-zero drift the two schedules measure the
        same noise and the ordering is a coin flip by construction.
        """
        population = _population(
            num_hosts=num_hosts,
            num_weeks=num_weeks,
            seed=seed,
            week_drift_scale=drift_scale,
        )
        never = evaluate_timeline(
            population, _policy(), PROTOCOL, RetrainSchedule("never")
        ).mean_utility()
        weekly = evaluate_timeline(
            population, _policy(), PROTOCOL, RetrainSchedule.every_k_weeks(1)
        ).mean_utility()
        assert weekly >= never - 1e-9

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        num_hosts=st.integers(min_value=6, max_value=16),
        num_weeks=st.integers(min_value=2, max_value=5),
    )
    def test_never_reproduces_one_shot_bit_for_bit(self, seed, num_hosts, num_weeks):
        """Golden regression: the never-schedule timeline contains today's one-shot."""
        population = _population(num_hosts=num_hosts, num_weeks=num_weeks, seed=seed)
        oneshot = evaluate_scenario(population, _policy(), PROTOCOL)
        timeline = evaluate_timeline(
            population, _policy(), PROTOCOL, RetrainSchedule("never")
        )
        assert timeline.week_outcome(1).to_dict() == oneshot.to_dict()
