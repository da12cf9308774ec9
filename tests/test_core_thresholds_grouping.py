"""Tests for repro.core threshold heuristics, grouping strategies and policies."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import (
    candidate_threshold_grid,
    distinct_host_configurations,
    exceedances,
    f_measure,
    host_thresholds,
    precision_recall,
    threshold_for_group,
)
from hypothesis import given, settings, strategies as st

from repro.core.grouping import (
    GroupAssignment,
    PerHostGrouping,
    QuantileSplitGrouping,
    SingleGroupGrouping,
)
from repro.core.metrics import OperatingPoint, utility
from repro.core.policies import (
    ConfigurationPolicy,
    DetectionAssignment,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
    ThresholdAssignment,
)
from repro.core import thresholds as thresholds_module
from repro.core.evaluation import training_distributions
from repro.core.thresholds import (
    FMeasureHeuristic,
    MeanStdHeuristic,
    PercentileHeuristic,
    UtilityHeuristic,
    candidate_threshold_grids,
)
from repro.experiments.fig3_utility import default_attack_sizes
from repro.features.definitions import Feature
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise


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
        assert exceedances(dist, heuristic.threshold(dist)) <= 0.011

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
        group_threshold = heuristic.thresholds_for_groups([distributions])[0]
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
        assert heuristic.thresholds_for_groups([[a, b]])[0] == pytest.approx(
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
        assert assignment.distinct_threshold_count == 1
        assert assignment.host_ids == tuple(sorted(distributions))

    def test_full_diversity_personal_thresholds(self):
        distributions = _population_distributions()
        assignment = FullDiversityPolicy().compute_thresholds(distributions)
        assert assignment.distinct_threshold_count > len(distributions) * 0.8
        thresholds = assignment.thresholds
        for host, distribution in distributions.items():
            assert thresholds[host] == pytest.approx(distribution.percentile(99))

    def test_partial_diversity_group_count(self):
        distributions = _population_distributions(num_light=60, num_heavy=12)
        assignment = PartialDiversityPolicy(num_groups=8).compute_thresholds(distributions)
        assert assignment.grouping.num_groups == 8
        assert 2 <= assignment.distinct_threshold_count <= 8

    def test_partial_diversity_requires_even_groups(self):
        with pytest.raises(ValidationError):
            PartialDiversityPolicy(num_groups=3)

    def test_thresholds_ordering_between_policies(self):
        """For light hosts: homogeneous >= partial >= own threshold (roughly)."""
        distributions = _population_distributions(num_light=40, num_heavy=8, seed=3)
        homogeneous = HomogeneousPolicy().compute_thresholds(distributions)
        diversity = FullDiversityPolicy().compute_thresholds(distributions)
        light_hosts = list(range(10))
        assert np.all(homogeneous.column(light_hosts) >= diversity.column(light_hosts))

    def test_lowest_threshold_hosts(self):
        distributions = _population_distributions()
        assignment = FullDiversityPolicy().compute_thresholds(distributions)
        best = assignment.lowest_threshold_hosts(5)
        assert len(best) == 5
        others = [h for h in distributions if h not in best]
        assert assignment.column(best).max() <= assignment.column(others).min()

    def test_custom_policy_name(self):
        policy = ConfigurationPolicy(PercentileHeuristic(), SingleGroupGrouping(), name="custom")
        assert policy.name == "custom"
        assert "percentile" in ConfigurationPolicy(PercentileHeuristic(), SingleGroupGrouping()).name


# --------------------------------------------------- batched search vs oracle
@st.composite
def _member(draw) -> EmpiricalDistribution:
    """One member's training bins: ragged, integer counts with ties, spread floats or all zero."""
    kind = draw(st.sampled_from(["integers", "floats", "zeros"]))
    length = draw(st.integers(1, 40))
    if kind == "zeros":
        return EmpiricalDistribution(np.zeros(length))
    values = (
        st.integers(0, 7).map(float)
        if kind == "integers"
        else st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)
    )
    return EmpiricalDistribution(draw(st.lists(values, min_size=length, max_size=length)))


@st.composite
def _groups(draw):
    """Members split into singletons, one big group, or uneven groups."""
    members = draw(st.lists(_member(), min_size=1, max_size=12))
    layout = draw(st.sampled_from(["singletons", "one", "uneven"]))
    if layout == "singletons":
        return [[member] for member in members]
    if layout == "one" or len(members) == 1:
        return [members]
    cuts = sorted(draw(st.sets(st.integers(1, len(members) - 1), min_size=1)))
    return [members[a:b] for a, b in zip([0, *cuts], [*cuts, len(members)], strict=True)]


#: Planned sizes: 0, repeats, any order, or none at all.
_SIZES = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5, 12.0, 40.0]) | st.floats(0.0, 600.0),
    max_size=12,
).map(tuple)
_CANDIDATES = st.sampled_from([2, 3, 5, 17, 200])
_HEURISTICS = st.one_of(
    st.builds(
        UtilityHeuristic,
        # w = 0.5 trades FP and FN exactly: the float arithmetic breaks those ties.
        weight=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
        attack_sizes=_SIZES,
        num_candidates=_CANDIDATES,
    ),
    st.builds(
        FMeasureHeuristic,
        attack_sizes=_SIZES,
        attack_prevalence=st.sampled_from([0.0, 0.01, 1.0]) | st.floats(0.0, 1.0),
        num_candidates=_CANDIDATES,
    ),
)


def _oracle(heuristic, groups):
    return [threshold_for_group(heuristic, members) for members in groups]


class TestBatchedSearchEqualsPerGroupOracle:
    """``thresholds_for_groups`` equals one per-group search per group, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        heuristic=_HEURISTICS,
        groups=_groups(),
        chunk_cells=st.sampled_from([1, 5, 64, 1 << 15]),
    )
    def test_matches_oracle(self, heuristic, groups, chunk_cells):
        """Small chunk budgets split groups into several chunks."""
        with mock.patch.object(thresholds_module, "_CHUNK_CELLS", chunk_cells):
            actual = heuristic.thresholds_for_groups(groups)
        assert actual == _oracle(heuristic, groups)

    @settings(max_examples=100, deadline=None)
    @given(
        distributions=st.lists(_member(), min_size=1, max_size=8),
        num_candidates=_CANDIDATES,
    )
    def test_grids_match_per_distribution_grid(self, distributions, num_candidates):
        values, counts = candidate_threshold_grids(distributions, num_candidates)
        expected = [candidate_threshold_grid(d, num_candidates) for d in distributions]
        assert counts.tolist() == [grid.size for grid in expected]
        assert np.array_equal(values, np.concatenate(expected))

    @given(
        heuristic=st.sampled_from([PercentileHeuristic(90.0), MeanStdHeuristic(2.0)]),
        groups=_groups(),
    )
    def test_pooled_defaults_match_oracle(self, heuristic, groups):
        assert heuristic.thresholds_for_groups(groups) == _oracle(heuristic, groups)

    def test_no_groups(self):
        assert UtilityHeuristic().thresholds_for_groups([]) == []

    @pytest.mark.parametrize(
        "samples, sizes, num_candidates, expected",
        [
            ([[2.0, 5.0, 7.0]], (2.0,), 5, 5.0),
            (
                [
                    [0.0, 1.0, 2.0, 2.0, 6.0],
                    [2.0, 4.0, 4.0],
                    [0.0, 5.0, 6.0],
                    [3.0, 5.0],
                    [2.0, 4.0],
                    [2.0, 7.0],
                    [3.0, 5.0, 5.0, 6.0, 7.0, 7.0],
                    [3.0, 7.0],
                ],
                (2.0, 2.0, 2.0),
                17,
                5.0,
            ),
        ],
        ids=["one-member", "eight-members"],
    )
    def test_exact_ties_follow_the_per_group_arithmetic(
        self, samples, sizes, num_candidates, expected
    ):
        """At w = 0.5 these candidates tie in exact arithmetic; the float FN
        ``1 - (1 - k / n)`` and the pairwise member mean pick the winner.  FN
        taken as ``k / n`` picks 7.0 for one member, and a sequential member
        sum picks 4.0 for eight."""
        heuristic = UtilityHeuristic(
            weight=0.5, attack_sizes=sizes, num_candidates=num_candidates
        )
        group = [EmpiricalDistribution(values) for values in samples]
        assert heuristic.thresholds_for_groups([group]) == [expected]
        assert threshold_for_group(heuristic, group) == expected


class TestBatchedSearchErrors:
    """Every validation of the per-group search still raises."""

    HEURISTICS = (
        PercentileHeuristic(99.0),
        MeanStdHeuristic(3.0),
        UtilityHeuristic(weight=0.4, attack_sizes=(10.0,)),
        FMeasureHeuristic(attack_sizes=(10.0,)),
    )

    @pytest.mark.parametrize("heuristic", HEURISTICS, ids=lambda h: h.name)
    def test_empty_group(self, heuristic):
        member = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ValidationError, match="at least one distribution"):
            heuristic.thresholds_for_groups([[member], []])

    @pytest.mark.parametrize("heuristic", HEURISTICS, ids=lambda h: h.name)
    def test_mixed_bin_widths(self, heuristic):
        narrow = EmpiricalDistribution(np.arange(50.0), bin_width=60.0)
        wide = EmpiricalDistribution(np.arange(50.0) * 5.0, bin_width=300.0)
        with pytest.raises(ValidationError, match="bin widths"):
            heuristic.thresholds_for_groups([[narrow], [narrow, wide]])

    @pytest.mark.parametrize("heuristic", HEURISTICS[2:], ids=lambda h: h.name)
    def test_empty_member(self, heuristic):
        """The searching heuristics score every member; pooling skips an empty one."""
        member = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ValidationError, match="non-empty distribution"):
            heuristic.thresholds_for_groups([[member, EmpiricalDistribution()]])

    @pytest.mark.parametrize("kind", [UtilityHeuristic, FMeasureHeuristic])
    def test_negative_size(self, kind):
        with pytest.raises(ValidationError, match="non-negative"):
            kind(attack_sizes=(10.0, -1.0))


class TestFiguresPopulation:
    """The figures population (350 hosts x 2 weeks, seed 2009): every policy of
    Figure 3, at its planned sizes and at the heuristics' default sizes."""

    @pytest.fixture(scope="class")
    def population(self):
        return generate_enterprise(EnterpriseConfig(num_hosts=350, num_weeks=2, seed=2009))

    @pytest.fixture(scope="class")
    def training(self, population):
        return training_distributions(population.matrices(), Feature.TCP_CONNECTIONS, week=0)

    @pytest.mark.parametrize("planned", ["fig3", "default"])
    @pytest.mark.parametrize("kind", [UtilityHeuristic, FMeasureHeuristic])
    def test_policies_match_oracle(self, population, training, planned, kind):
        sizes = (
            default_attack_sizes(population, Feature.TCP_CONNECTIONS)
            if planned == "fig3"
            else (10.0, 50.0, 100.0, 500.0)
        )
        heuristic = kind(attack_sizes=sizes)
        for policy in (
            HomogeneousPolicy(heuristic),
            FullDiversityPolicy(heuristic),
            PartialDiversityPolicy(heuristic, num_groups=8),
        ):
            assignment = policy.compute_thresholds(training)
            groups = [[training[host] for host in group] for group in assignment.grouping.groups]
            assert list(assignment.group_thresholds) == _oracle(heuristic, groups), policy.name

    def test_full_diversity_memory_is_bounded(self, population, training):
        """Chunks bound the search: a dense (members, candidates, sizes) array
        would hold 53,206 x 10 doubles (4.1 MiB) here."""
        sizes = default_attack_sizes(population, Feature.TCP_CONNECTIONS)
        heuristic = UtilityHeuristic(attack_sizes=sizes)
        groups = [[distribution] for distribution in training.values()]
        heuristic.thresholds_for_groups(groups)
        tracemalloc.start()
        try:
            heuristic.thresholds_for_groups(groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, peak


# ------------------------------------------- columnar assignment vs host dict
#: Thresholds, with repeats and values 9 decimals apart or closer.  Python's
#: ``round(t, 9)`` takes 1.0000000005 to 1.000000001, and ``np.round`` to 1.0.
_THRESHOLDS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-10, 1.0000000005, 1.000000001, 37.8]),
)


@st.composite
def _groupings(draw, host_ids):
    """``host_ids`` in one group, singletons, quantile-split groups or a random partition."""
    values = st.lists(st.floats(0.0, 1e4), min_size=len(host_ids), max_size=len(host_ids))
    statistics = dict(zip(host_ids, draw(values)))
    kind = draw(st.sampled_from(["single", "per-host", "quantile", "random"]))
    if kind == "single":
        return SingleGroupGrouping().assign(statistics)
    if kind == "per-host":
        return PerHostGrouping().assign(statistics)
    if kind == "quantile":
        per_side = draw(st.integers(min_value=1, max_value=4))
        return QuantileSplitGrouping(groups_per_side=per_side).assign(statistics)
    order = draw(st.permutations(host_ids))
    cuts = draw(st.sets(st.integers(1, len(order) - 1))) if len(order) > 1 else set()
    bounds = [0, *sorted(cuts), len(order)]
    groups = tuple(tuple(order[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    return GroupAssignment(groups=groups, strategy_name="random")


@st.composite
def _assignments(draw, host_ids):
    grouping = draw(_groupings(host_ids))
    size = grouping.num_groups
    thresholds = draw(st.lists(_THRESHOLDS, min_size=size, max_size=size))
    return ThresholdAssignment(grouping, tuple(thresholds), "random")


#: Non-contiguous host ids.
_HOST_IDS = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40, unique=True
)


class TestColumnarAssignment:
    """An assignment's host columns equal the host -> threshold dict it once stored."""

    @settings(max_examples=150, deadline=None)
    @given(host_ids=_HOST_IDS, data=st.data())
    def test_columns_match_the_host_dict(self, host_ids, data):
        assignment = data.draw(_assignments(host_ids))
        expected = host_thresholds(assignment)
        hosts = sorted(expected)
        assert assignment.host_ids == tuple(hosts)
        assert assignment.values.dtype == np.float64
        assert not assignment.values.flags.writeable
        assert assignment.values.tolist() == [expected[host] for host in hosts]
        view = assignment.thresholds
        assert view == expected and list(view) == hosts
        assert all(type(host) is int and type(value) is float for host, value in view.items())
        permutation = data.draw(st.permutations(host_ids))
        subset = data.draw(st.lists(st.sampled_from(host_ids)))
        for order in (permutation, subset):
            assert assignment.column(order).tolist() == [expected[host] for host in order]
        assert assignment.distinct_threshold_count == distinct_host_configurations([expected])
        count = data.draw(st.integers(min_value=1, max_value=len(hosts) + 2))
        ranked = sorted(expected, key=lambda host: (expected[host], host))
        assert assignment.lowest_threshold_hosts(count) == tuple(ranked[:count])

    @settings(max_examples=60, deadline=None)
    @given(host_ids=_HOST_IDS, data=st.data())
    def test_assignments_from_the_same_inputs_are_equal(self, host_ids, data):
        assignment = data.draw(_assignments(host_ids))
        assignment.column(host_ids)  # caches the columns on one side only
        again = ThresholdAssignment(
            assignment.grouping, assignment.group_thresholds, assignment.policy_name
        )
        assert again == assignment and hash(again) == hash(assignment)

    @settings(max_examples=80, deadline=None)
    @given(host_ids=_HOST_IDS, data=st.data())
    def test_configuration_count_with_a_grouping_per_feature(self, host_ids, data):
        features = (Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS)
        per_feature = {
            feature: data.draw(_assignments(host_ids))
            for feature in features[: data.draw(st.integers(min_value=1, max_value=3))]
        }
        assignment = DetectionAssignment(per_feature=per_feature, policy_name="random")
        expected = distinct_host_configurations([host_thresholds(a) for a in per_feature.values()])
        assert assignment.distinct_threshold_count == expected

    @pytest.mark.parametrize("unknown", [-1, 4, 8, 100])
    def test_column_of_an_unknown_host_raises(self, unknown):
        grouping = GroupAssignment(groups=((3, 9), (5,)), strategy_name="fixed")
        assignment = ThresholdAssignment(grouping, (2.0, 1.0), "fixed")
        assert assignment.column([9, 3, 5]).tolist() == [2.0, 2.0, 1.0]
        with pytest.raises(KeyError, match=str(unknown)):
            assignment.column([3, unknown, 5])

