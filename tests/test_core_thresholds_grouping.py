"""Tests for repro.core threshold heuristics, grouping strategies and policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.grouping import (
    GroupAssignment,
    PerHostGrouping,
    QuantileSplitGrouping,
    SingleGroupGrouping,
)
from repro.core.metrics import OperatingPoint, f_measure, precision_recall, utility
from repro.core.policies import (
    ConfigurationPolicy,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import (
    FMeasureHeuristic,
    MeanStdHeuristic,
    PercentileHeuristic,
    UtilityHeuristic,
)
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.validation import ValidationError


def _population_distributions(num_light=20, num_heavy=4, seed=0):
    rng = np.random.default_rng(seed)
    distributions = {}
    for host in range(num_light):
        distributions[host] = EmpiricalDistribution(rng.lognormal(2.5, 0.8, 600))
    for host in range(num_light, num_light + num_heavy):
        distributions[host] = EmpiricalDistribution(rng.lognormal(6.5, 0.8, 600))
    return distributions


class TestMetrics:
    def test_utility_bounds(self):
        assert utility(0.0, 0.0, 0.4) == 1.0
        assert utility(1.0, 1.0, 0.4) == 0.0
        assert utility(1.0, 0.0, 0.4) == pytest.approx(0.6)

    def test_operating_point_utility(self):
        point = OperatingPoint(false_positive_rate=0.1, false_negative_rate=0.2)
        assert point.detection_rate == pytest.approx(0.8)
        assert point.utility(0.5) == pytest.approx(1 - 0.5 * 0.2 - 0.5 * 0.1)

    def test_precision_recall_degenerate(self):
        assert precision_recall(0, 0, 0) == (1.0, 1.0)
        assert precision_recall(0, 5, 0) == (0.0, 1.0)

    def test_f_measure(self):
        assert f_measure(1.0, 1.0) == 1.0
        assert f_measure(0.0, 0.0) == 0.0
        assert f_measure(0.5, 1.0) == pytest.approx(2 / 3)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_utility_in_unit_interval(self, fn, fp, w):
        assert 0.0 <= utility(fn, fp, w) <= 1.0


class TestThresholdHeuristics:
    def test_percentile_heuristic_matches_distribution(self):
        dist = EmpiricalDistribution(range(1, 1001))
        heuristic = PercentileHeuristic(99.0)
        assert heuristic.threshold(dist) == pytest.approx(dist.percentile(99))
        # By construction, the exceedance at the threshold is at most 1%.
        assert dist.exceedance(heuristic.threshold(dist)) <= 0.011

    def test_percentile_validation(self):
        with pytest.raises(ValidationError):
            PercentileHeuristic(100.0)

    def test_mean_std_heuristic(self):
        dist = EmpiricalDistribution([10.0] * 100)
        assert MeanStdHeuristic(3.0).threshold(dist) == pytest.approx(10.0)

    def test_utility_heuristic_tradeoff(self):
        dist = EmpiricalDistribution(np.random.default_rng(1).lognormal(3, 1, 800))
        conservative = UtilityHeuristic(weight=0.05, attack_sizes=(50.0, 200.0)).threshold(dist)
        aggressive = UtilityHeuristic(weight=0.95, attack_sizes=(50.0, 200.0)).threshold(dist)
        # Caring more about missed detections pushes the threshold down.
        assert aggressive <= conservative

    def test_utility_group_threshold_balances_members(self):
        distributions = list(_population_distributions().values())
        heuristic = UtilityHeuristic(weight=0.4, attack_sizes=(100.0, 500.0, 2000.0))
        group_threshold = heuristic.threshold_for_group(distributions)
        pooled_p99 = EmpiricalDistribution.pooled(distributions).percentile(99)
        # The average-member optimum sits well below the pooled tail, because
        # protecting the many light members outweighs a few heavy members' FPs.
        assert group_threshold < pooled_p99

    def test_f_measure_heuristic_returns_valid_threshold(self):
        dist = EmpiricalDistribution(np.random.default_rng(2).lognormal(3, 1, 500))
        threshold = FMeasureHeuristic(attack_sizes=(100.0,)).threshold(dist)
        assert dist.min() <= threshold <= dist.max() * 1.02 + 1.0

    def test_group_default_pools(self):
        a = EmpiricalDistribution([1.0, 2.0, 3.0])
        b = EmpiricalDistribution([100.0, 200.0, 300.0])
        heuristic = PercentileHeuristic(50.0)
        assert heuristic.threshold_for_group([a, b]) == pytest.approx(
            EmpiricalDistribution.pooled([a, b]).percentile(50)
        )


class TestGrouping:
    def test_single_group(self):
        assignment = SingleGroupGrouping().assign({1: 5.0, 2: 9.0})
        assert assignment.num_groups == 1
        assert assignment.groups == ((1, 2),)

    def test_per_host_group(self):
        assignment = PerHostGrouping().assign({1: 5.0, 2: 9.0, 3: 1.0})
        assert assignment.num_groups == 3
        assert all(len(group) == 1 for group in assignment.groups)

    def test_quantile_split_eight_groups(self):
        statistics = {host: float(host + 1) for host in range(100)}
        assignment = QuantileSplitGrouping().assign(statistics)
        assert assignment.num_groups == 8
        assert len(assignment.host_ids) == 100
        # The heavy-side groups contain the hosts with the largest statistics.
        heavy_hosts = set(assignment.groups[-1]) | set(assignment.groups[-2])
        assert all(statistics[h] > 80 for h in heavy_hosts)
        assert all(statistics[h] > 80 for h in assignment.groups[-1])

    def test_quantile_split_small_population(self):
        assignment = QuantileSplitGrouping().assign({0: 1.0, 1: 2.0, 2: 3.0})
        assert len(assignment.host_ids) == 3

    def test_quantile_split_groups_ordered_by_statistic(self):
        statistics = {host: float(100 - host) for host in range(50)}
        assignment = QuantileSplitGrouping(groups_per_side=2).assign(statistics)
        maxima = [max(statistics[h] for h in group) for group in assignment.groups]
        assert maxima == sorted(maxima)

    def test_assignment_validation(self):
        with pytest.raises(ValidationError):
            GroupAssignment(groups=((1, 2), (2, 3)), strategy_name="bad")
        with pytest.raises(ValidationError):
            GroupAssignment(groups=(), strategy_name="empty")


class TestPolicies:
    def test_homogeneous_single_threshold(self):
        distributions = _population_distributions()
        assignment = HomogeneousPolicy().compute_thresholds(distributions)
        assert assignment.distinct_threshold_count() == 1
        assert len(assignment.thresholds) == len(distributions)

    def test_full_diversity_personal_thresholds(self):
        distributions = _population_distributions()
        assignment = FullDiversityPolicy().compute_thresholds(distributions)
        assert assignment.distinct_threshold_count() > len(distributions) * 0.8
        for host, distribution in distributions.items():
            assert assignment.threshold_of(host) == pytest.approx(distribution.percentile(99))

    def test_partial_diversity_group_count(self):
        distributions = _population_distributions(num_light=60, num_heavy=12)
        assignment = PartialDiversityPolicy(num_groups=8).compute_thresholds(distributions)
        assert assignment.grouping.num_groups == 8
        assert 2 <= assignment.distinct_threshold_count() <= 8

    def test_partial_diversity_requires_even_groups(self):
        with pytest.raises(ValidationError):
            PartialDiversityPolicy(num_groups=3)

    def test_thresholds_ordering_between_policies(self):
        """For light hosts: homogeneous >= partial >= own threshold (roughly)."""
        distributions = _population_distributions(num_light=40, num_heavy=8, seed=3)
        homogeneous = HomogeneousPolicy().compute_thresholds(distributions)
        diversity = FullDiversityPolicy().compute_thresholds(distributions)
        light_hosts = list(range(10))
        for host in light_hosts:
            assert homogeneous.threshold_of(host) >= diversity.threshold_of(host)

    def test_lowest_threshold_hosts(self):
        distributions = _population_distributions()
        assignment = FullDiversityPolicy().compute_thresholds(distributions)
        best = assignment.lowest_threshold_hosts(5)
        assert len(best) == 5
        worst_of_best = max(assignment.threshold_of(h) for h in best)
        others = [assignment.threshold_of(h) for h in distributions if h not in best]
        assert worst_of_best <= min(others)

    def test_custom_policy_name(self):
        policy = ConfigurationPolicy(PercentileHeuristic(), SingleGroupGrouping(), name="custom")
        assert policy.name == "custom"
        assert "percentile" in ConfigurationPolicy(PercentileHeuristic(), SingleGroupGrouping()).name
