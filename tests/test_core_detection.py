"""Tests for the evaluation harness."""

from __future__ import annotations

import pytest

from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import (
    DetectionProtocol,
    EvaluationMemo,
    evaluate_policy,
    training_distributions,
)
from repro.core.experiment import summarize_scenario
from repro.core.policies import (
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
    ThresholdAssignment,
)
from repro.core.thresholds import UtilityHeuristic
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.utils.timeutils import BinSpec, MINUTE
from repro.utils.validation import ValidationError


def _series(values):
    return TimeSeries(values, BinSpec(width=15 * MINUTE))


def _matrix(values, host_id=1, feature=Feature.TCP_CONNECTIONS):
    return FeatureMatrix(host_id=host_id, series={feature: _series(values)})


class TestEvaluation:
    def test_protocol_validation(self):
        with pytest.raises(ValidationError):
            DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), train_week=1, test_week=1)

    def test_training_distributions_active_bins(self):
        matrices = {1: _matrix([0.0] * 671 + [100.0] * 673)}
        active = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0, active_bins_only=True)
        full = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0, active_bins_only=False)
        assert active[1].min() > 0
        assert full[1].min() == 0.0

    def test_policy_evaluation_end_to_end(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), train_week=0, test_week=1)
        evaluation = evaluate_policy(matrices, FullDiversityPolicy(), protocol)
        assert len(evaluation.performances) == len(matrices)
        assert 0.0 <= evaluation.mean_utility() <= 1.0
        # Without an attack, false negatives are zero for everyone.
        assert all(p.false_negative_rate == 0.0 for p in evaluation.performances.values())
        assert evaluation.total_false_alarms() >= 0

    def test_policy_evaluation_with_attack(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,), train_week=0, test_week=1)
        attack_builder = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=50.0).builder()
        diversity = evaluate_policy(
            matrices, FullDiversityPolicy(), protocol, attack_builder=attack_builder
        )
        homogeneous = evaluate_policy(
            matrices, HomogeneousPolicy(), protocol, attack_builder=attack_builder
        )
        # Diversity detects the moderate attack on more hosts than the monoculture.
        assert diversity.fraction_raising_alarm() >= homogeneous.fraction_raising_alarm()
        assert 0.0 <= diversity.fraction_raising_alarm() <= 1.0

    def test_partial_diversity_threshold_count(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))
        evaluation = evaluate_policy(matrices, PartialDiversityPolicy(), protocol)
        assert evaluation.assignment.for_feature(Feature.TCP_CONNECTIONS).grouping.num_groups == 8

    def test_utilities_respond_to_weight(self, small_population):
        matrices = small_population.matrices()
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))
        attack_builder = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=5.0).builder()
        evaluation = evaluate_policy(
            matrices, HomogeneousPolicy(), protocol, attack_builder=attack_builder
        )
        # A tiny attack is mostly missed under the global threshold, so utility
        # must fall as the false-negative weight rises.
        assert evaluation.mean_utility(0.9) < evaluation.mean_utility(0.1)


class TestEvaluationMemo:
    PROTOCOL = DetectionProtocol(features=(Feature.DNS_CONNECTIONS, Feature.TCP_CONNECTIONS))

    def test_a_hit_serves_the_objects_the_miss_computed(self, small_population):
        matrices = small_population.matrices()
        builder = NaiveAttacker(Feature.DNS_CONNECTIONS, attack_size=50.0).builder()
        memo = EvaluationMemo()
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            first = evaluate_policy(matrices, FullDiversityPolicy(), self.PROTOCOL, memo=memo)
            again = evaluate_policy(
                matrices, FullDiversityPolicy(), self.PROTOCOL, builder, memo=memo
            )
        alone = evaluate_policy(matrices, FullDiversityPolicy(), self.PROTOCOL, builder)
        assert again.assignment is first.assignment
        assert again.assignment == alone.assignment
        assert dict(again.performances) == dict(alone.performances)
        assert recorder.counters["core.trainings_reused"] == 2
        assert recorder.counters["core.assignments_reused"] == 1
        assert recorder.counters["optimize.assignments"] == 2
        names = [span.name for span in recorder.spans]
        assert (names.count("core.train"), names.count("core.assign")) == (1, 1)

    def test_a_shared_assignment_counts_its_thresholds_once(self, small_population, monkeypatch):
        matrices = small_population.matrices()
        builder = NaiveAttacker(Feature.DNS_CONNECTIONS, attack_size=50.0).builder()
        memo = EvaluationMemo()
        policy = PartialDiversityPolicy(num_groups=4)
        first = summarize_scenario(evaluate_policy(matrices, policy, self.PROTOCOL, memo=memo))
        rounded = []
        count_groups = ThresholdAssignment._rounded_groups

        def counted(assignment):
            rounded.append(assignment)
            return count_groups(assignment)

        monkeypatch.setattr(ThresholdAssignment, "_rounded_groups", counted)
        shared = evaluate_policy(
            matrices, PartialDiversityPolicy(num_groups=4), self.PROTOCOL, builder, memo=memo
        )
        second = summarize_scenario(shared)
        assert rounded == []
        alone = summarize_scenario(
            evaluate_policy(matrices, PartialDiversityPolicy(num_groups=4), self.PROTOCOL, builder)
        )
        assert len(rounded) == 4  # a fresh assignment: two features, each counted twice
        for outcome in (first, second):
            assert outcome.distinct_thresholds == alone.distinct_thresholds
            for feature, aggregates in alone.per_feature.items():
                assert (
                    outcome.per_feature[feature]["distinct_thresholds"]
                    == aggregates["distinct_thresholds"]
                )

    def test_only_missing_features_are_trained(self, small_population):
        matrices = small_population.matrices()
        memo = EvaluationMemo()
        first = memo.training(matrices, self.PROTOCOL)
        reordered = DetectionProtocol(
            features=(Feature.TCP_SYN, Feature.TCP_CONNECTIONS), fusion=self.PROTOCOL.fusion
        )
        second = memo.training(matrices, reordered)
        assert list(second) == [Feature.TCP_SYN, Feature.TCP_CONNECTIONS]
        assert second[Feature.TCP_CONNECTIONS] is first[Feature.TCP_CONNECTIONS]
        fresh = training_distributions(matrices, Feature.TCP_SYN, 0)
        assert all(
            second[Feature.TCP_SYN][host].samples.tobytes() == fresh[host].samples.tobytes()
            for host in matrices
        )

    def test_unhashable_policy_parts_are_computed_each_time(self, small_population):
        matrices = small_population.matrices()
        policy = HomogeneousPolicy(UtilityHeuristic(attack_sizes=[10.0, 50.0]))
        memo = EvaluationMemo()
        first = evaluate_policy(matrices, policy, self.PROTOCOL, memo=memo)
        again = evaluate_policy(matrices, policy, self.PROTOCOL, memo=memo)
        assert again.assignment is not first.assignment
        assert again.assignment == first.assignment
