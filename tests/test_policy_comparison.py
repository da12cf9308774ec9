"""Tests for the quickstart surface: quick_population, ExperimentContext, PolicyComparison."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Feature, PolicyComparison, quick_population
from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import evaluate_policy
from repro.core.experiment import ExperimentContext, standard_policies
from repro.core.fusion import FusionRule
from repro.core.policies import FullDiversityPolicy, HomogeneousPolicy, PartialDiversityPolicy
from repro.core.thresholds import PercentileHeuristic
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

FEATURE = Feature.TCP_CONNECTIONS
FEATURE_SET = (Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS)


@pytest.fixture(scope="module")
def population():
    return quick_population(num_hosts=16, num_weeks=2, seed=7)


def _attack():
    return NaiveAttacker(feature=FEATURE, attack_size=50.0).builder()


class TestQuickPopulation:
    def test_matches_generate_enterprise_for_the_same_config(self, population):
        expected = generate_enterprise(EnterpriseConfig(num_hosts=16, num_weeks=2, seed=7))
        assert population.config == expected.config
        assert population.host_ids == expected.host_ids
        for host_id in expected.host_ids:
            for feature in FEATURE_SET:
                np.testing.assert_array_equal(
                    population.matrix(host_id)[feature].values,
                    expected.matrix(host_id)[feature].values,
                )


class TestExperimentContext:
    def test_rejects_weeks_outside_the_population(self, population):
        with pytest.raises(ValidationError, match="out of range"):
            ExperimentContext(population, train_week=0, test_week=2)
        with pytest.raises(ValidationError, match="out of range"):
            ExperimentContext(population, train_week=2, test_week=1)

    def test_matrices_cover_every_host(self, population):
        context = ExperimentContext(population)
        assert sorted(context.matrices) == list(population.host_ids)

    def test_protocol_uses_the_context_weeks(self, population):
        context = ExperimentContext(population, train_week=1, test_week=0)
        protocol = context.protocol(FEATURE, utility_weight=0.7)
        assert protocol.features == (FEATURE,)
        assert (protocol.train_week, protocol.test_week) == (1, 0)
        assert protocol.utility_weight == 0.7
        assert protocol.fusion == FusionRule.any_()

    def test_detection_protocol_defaults_to_any_fusion(self, population):
        context = ExperimentContext(population)
        protocol = context.detection_protocol(iter(FEATURE_SET))
        assert protocol.features == FEATURE_SET
        assert protocol.fusion == FusionRule.any_()
        assert (protocol.train_week, protocol.test_week) == (0, 1)
        fused = context.detection_protocol(
            FEATURE_SET, fusion=FusionRule.all_(), utility_weight=0.2
        )
        assert fused.fusion == FusionRule.all_()
        assert fused.utility_weight == 0.2


class TestStandardPolicies:
    def test_the_papers_three_policies_share_one_heuristic(self):
        heuristic = PercentileHeuristic(95.0)
        policies = standard_policies(heuristic, partial_groups=4)
        assert [type(policy) for policy in policies] == [
            HomogeneousPolicy,
            FullDiversityPolicy,
            PartialDiversityPolicy,
        ]
        assert [policy.name for policy in policies] == [
            "homogeneous",
            "full-diversity",
            "4-partial",
        ]
        assert all(policy.heuristic is heuristic for policy in policies)
        assert all(policy.optimizer is None for policy in policies)

    def test_partial_group_count_must_be_even(self):
        with pytest.raises(ValidationError, match="even"):
            standard_policies(partial_groups=3)


class TestPolicyComparison:
    def test_defaults_to_the_standard_policies(self, population):
        results = PolicyComparison(ExperimentContext(population)).run(FEATURE)
        assert list(results) == [policy.name for policy in standard_policies()]

    def test_run_matches_evaluate_policy(self, population):
        context = ExperimentContext(population)
        policies = [HomogeneousPolicy(), FullDiversityPolicy()]
        results = PolicyComparison(context, policies).run(
            FEATURE, utility_weight=0.3, attack_builder=_attack()
        )
        assert list(results) == ["homogeneous", "full-diversity"]
        for policy in policies:
            expected = evaluate_policy(
                context.matrices,
                policy,
                context.protocol(FEATURE, utility_weight=0.3),
                attack_builder=_attack(),
            )
            actual = results[policy.name]
            assert actual.protocol == expected.protocol
            assert actual.utilities() == expected.utilities()
            assert actual.false_positive_rates() == expected.false_positive_rates()
            assert actual.fraction_raising_alarm() == expected.fraction_raising_alarm()

    def test_run_accepts_a_full_protocol(self, population):
        context = ExperimentContext(population)
        protocol = context.detection_protocol(FEATURE_SET, fusion=FusionRule.all_())
        results = PolicyComparison(context, [HomogeneousPolicy()]).run(protocol)
        evaluation = results["homogeneous"]
        assert evaluation.protocol == protocol
        assert evaluation.features == FEATURE_SET
        assert set(evaluation.assignment.per_feature) == set(FEATURE_SET)
