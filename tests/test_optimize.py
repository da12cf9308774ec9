"""Tests for the `repro.optimize` subsystem: joint threshold optimisation.

Covers the golden regression (`IndependentOptimizer` — and the plain
heuristic path — reproduce the pre-optimizer per-feature thresholds bit for
bit), the optimizer ordering/equality properties from the issue, the fused
objective itself, provenance threading through `evaluate_policy` and
`ScenarioOutcome`, and the bin-width pooling guard.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import exceedances, rebin
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import (
    DetectionProtocol,
    detection_training_distributions,
    evaluate_policy,
    series_distributions,
    training_distributions,
)
from repro.core.experiment import summarize_scenario
from repro.core.fusion import FusionRule
from repro.core.policies import (
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import (
    FMeasureHeuristic,
    MeanStdHeuristic,
    PercentileHeuristic,
    UtilityHeuristic,
    candidate_threshold_grids,
)
from repro.engine.cache import PopulationCache
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, PopulationFrame
from repro.optimize import (
    MAX_JOINT_GRID_FEATURES,
    CoordinateAscentOptimizer,
    FusedUtilityObjective,
    GridJointOptimizer,
    IndependentOptimizer,
)
from repro.optimize.objective import ROW_BLOCK_ELEMENTS
from repro.optimize.optimizers import _feature_grids, independent_thresholds
from repro.stats.empirical import EmpiricalDistribution, common_bin_width
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_thresholds.json"

#: ``scripts/dev_capture_golden.py`` pins every optimizer's selections under
#: this file's ``optimizers`` key (24 hosts, 2 weeks, seed 77).
FIGURES_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_figures.json"
OPTIMIZER_FEATURES = (Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS)

#: The feature set and training setup the golden file was captured with
#: (16 hosts, 2 weeks, seed 99 — the `tiny_population` fixture).
GOLDEN_FEATURES = (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS)

#: Heuristics by the names stored in the golden file.
GOLDEN_HEURISTICS = {
    "percentile-99": PercentileHeuristic(99.0),
    "mean+3std": MeanStdHeuristic(3.0),
    "utility-w0.4": UtilityHeuristic(weight=0.4, attack_sizes=(10.0, 50.0, 100.0, 500.0)),
    "f-measure": FMeasureHeuristic(attack_sizes=(10.0, 50.0, 100.0, 500.0)),
}


def _policy(kind: str, heuristic, optimizer=None):
    if kind == "homogeneous":
        return HomogeneousPolicy(heuristic, optimizer=optimizer)
    if kind == "full-diversity":
        return FullDiversityPolicy(heuristic, optimizer=optimizer)
    return PartialDiversityPolicy(heuristic, num_groups=8, optimizer=optimizer)


@pytest.fixture(scope="module")
def golden_entries():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_training(tiny_population):
    return detection_training_distributions(
        tiny_population.matrices(), GOLDEN_FEATURES, week=0
    )


@pytest.fixture(scope="module", params=("generated", "cached"))
def fixture_training(request, tmp_path_factory):
    """Week-0 and week-1 training on the golden fixture's 24-host population.

    Once generated and once loaded back through a cache, whose matrices are a
    ``PopulationFrame`` the training kernel reads as views.
    """
    config = EnterpriseConfig(num_hosts=24, num_weeks=2, seed=77)
    population = generate_enterprise(config)
    if request.param == "cached":
        cache = PopulationCache(tmp_path_factory.mktemp("optimizer-golden"))
        cache.store(population)
        population = cache.load(config)
        assert isinstance(population.matrices(), PopulationFrame)
    matrices = population.matrices()
    return tuple(
        detection_training_distributions(matrices, OPTIMIZER_FEATURES, week=week)
        for week in (0, 1)
    )


class TestGoldenRegression:
    """Selection must reproduce the pre-optimizer thresholds bit for bit."""

    def test_golden_file_covers_every_combination(self, golden_entries):
        combos = {(entry["heuristic"], entry["policy"]) for entry in golden_entries}
        assert len(combos) == len(GOLDEN_HEURISTICS) * 3

    @pytest.mark.parametrize("optimizer", [None, IndependentOptimizer()])
    def test_selection_bit_identical_to_golden(
        self, golden_entries, golden_training, optimizer
    ):
        for entry in golden_entries:
            heuristic = GOLDEN_HEURISTICS[entry["heuristic"]]
            policy = _policy(entry["policy"], heuristic, optimizer=optimizer)
            assignment = policy.assign(golden_training, fusion=FusionRule.any_())
            for feature in GOLDEN_FEATURES:
                expected = entry["per_feature"][feature.value]
                actual = assignment.for_feature(feature).thresholds
                for host, value in expected.items():
                    # Exact equality: the refactor must not perturb a single bit.
                    assert actual[int(host)] == value, (
                        entry["policy"],
                        entry["heuristic"],
                        feature.value,
                        host,
                    )

    def test_optimizer_selections_match_fixture(self, fixture_training):
        """Joint selections reproduce the pinned thresholds, objectives and sweeps."""
        golden = json.loads(FIGURES_GOLDEN_PATH.read_text(encoding="utf-8"))["optimizers"]
        week0, week1 = fixture_training
        heuristic = UtilityHeuristic(weight=0.4)

        def policy(kind, optimizer):
            if kind == "partial":
                return PartialDiversityPolicy(heuristic, num_groups=4, optimizer=optimizer)
            return _policy(kind, heuristic, optimizer=optimizer)

        def payload(assignment):
            return {
                "thresholds": {
                    feature.value: {
                        str(host): repr(value)
                        for host, value in assignment.for_feature(feature).thresholds.items()
                    }
                    for feature in OPTIMIZER_FEATURES
                },
                "objective_value": repr(float(assignment.optimization.objective_value)),
                "iterations": assignment.optimization.iterations,
            }

        fusions = (FusionRule.any_(), FusionRule.k_of_n(2), FusionRule.all_())
        for kind in ("homogeneous", "full-diversity", "partial"):
            ascent = policy(kind, CoordinateAscentOptimizer(weight=0.4))
            grid = policy(kind, GridJointOptimizer(weight=0.4, num_candidates=8))
            independent = policy(kind, IndependentOptimizer(weight=0.4))
            for fusion in fusions:
                expected = golden[f"{kind}/{fusion.name}"]
                cold = ascent.assign(week0, fusion=fusion)
                assert payload(cold) == expected["coordinate-ascent"], (kind, fusion.name)
                warm = ascent.assign(week1, fusion=fusion, warm_start=cold)
                assert payload(warm) == expected["coordinate-ascent-warm"], (kind, fusion.name)
                joint = grid.assign(week0, fusion=fusion)
                assert payload(joint) == expected["grid-joint"], (kind, fusion.name)
                scored = independent.assign(week0, fusion=fusion).optimization
                assert repr(float(scored.objective_value)) == expected["independent"]
        dns = policy(
            "partial",
            CoordinateAscentOptimizer(weight=0.4, attack_feature=Feature.DNS_CONNECTIONS),
        )
        assert (
            payload(dns.assign(week0, fusion=FusionRule.any_()))
            == golden["partial/any/attack-dns"]["coordinate-ascent"]
        )

    def test_independent_optimizer_adds_provenance_only(self, golden_training):
        heuristic = GOLDEN_HEURISTICS["percentile-99"]
        plain = _policy("homogeneous", heuristic).assign(golden_training)
        scored = _policy("homogeneous", heuristic, optimizer=IndependentOptimizer()).assign(
            golden_training, fusion=FusionRule.any_()
        )
        assert plain.optimization is None
        assert scored.optimization is not None
        assert scored.optimization.optimizer == "independent"
        assert scored.optimization.iterations == 0
        assert np.isfinite(scored.optimization.objective_value)


# --------------------------------------------------------------------------
# Hypothesis strategies: small per-member feature distributions.


@st.composite
def _member_groups(draw, features=GOLDEN_FEATURES, max_members=3):
    """1-``max_members`` group members, each with a distribution per feature."""
    num_members = draw(st.integers(min_value=1, max_value=max_members))
    members = []
    for _ in range(num_members):
        member = {}
        for feature in features:
            samples = draw(
                st.lists(st.integers(min_value=0, max_value=120), min_size=4, max_size=40)
            )
            member[feature] = EmpiricalDistribution([float(v) for v in samples])
        members.append(member)
    return members


def _independent_score(members, features, objective, heuristic):
    """The group's mean member utility at its independent (per-feature heuristic) vector."""
    start = independent_thresholds([members], features, heuristic)[0]
    return float(objective.group_scores(members, features, [[start[f] for f in features]])[0])


_FUSIONS = st.sampled_from([FusionRule.any_(), FusionRule.all_(), FusionRule.k_of_n(2)])
_ATTACK_SIZES = st.lists(
    st.integers(min_value=1, max_value=150), min_size=1, max_size=3
).map(lambda sizes: tuple(float(s) for s in sizes))


class TestOptimizerProperties:
    @settings(max_examples=40, deadline=None)
    @given(members=_member_groups(), fusion=_FUSIONS, sizes=_ATTACK_SIZES)
    def test_coordinate_ascent_never_below_independent(self, members, fusion, sizes):
        """CA starts from the independent solution, so it can only improve."""
        heuristic = PercentileHeuristic(99.0)
        objective = FusedUtilityObjective(fusion=fusion, weight=0.4, attack_sizes=sizes)
        independent = _independent_score(members, GOLDEN_FEATURES, objective, heuristic)
        ascended = CoordinateAscentOptimizer(num_candidates=12, max_sweeps=16).optimize_group(
            members, GOLDEN_FEATURES, objective, heuristic
        )
        assert ascended.objective_value >= independent - 1e-12
        assert ascended.iterations >= 1

    @settings(max_examples=40, deadline=None)
    @given(
        members=_member_groups(),
        sizes=_ATTACK_SIZES,
        num_candidates=st.integers(min_value=4, max_value=14),
        weight=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_coordinate_ascent_sandwiched_by_independent_and_joint_grid(
        self, members, sizes, num_candidates, weight
    ):
        """independent <= coordinate ascent <= exhaustive joint grid, always.

        Both joint optimizers search the same per-feature candidate grids
        (the joint grid is their cartesian product), so the exhaustive
        optimum bounds coordinate ascent from above; the independent start
        bounds it from below.  Strict equality with the joint grid is NOT
        guaranteed in general — coordinate ascent is a coordinate-wise local
        search, and degenerate training data (e.g. an all-zero feature) can
        trap it — so the exact-equality claim is pinned on the realistic
        seeded workload below instead.
        """
        heuristic = PercentileHeuristic(99.0)
        objective = FusedUtilityObjective(
            fusion=FusionRule.any_(), weight=weight, attack_sizes=sizes
        )
        independent = _independent_score(members, GOLDEN_FEATURES, objective, heuristic)
        ascended = CoordinateAscentOptimizer(
            num_candidates=num_candidates, max_sweeps=32
        ).optimize_group(members, GOLDEN_FEATURES, objective, heuristic)
        exhaustive = GridJointOptimizer(num_candidates=num_candidates).optimize_group(
            members, GOLDEN_FEATURES, objective, heuristic
        )
        # CA starts from the independent solution (merged into both grids)...
        assert ascended.objective_value >= independent - 1e-12
        # ...and its reachable set is a subset of the exhaustive joint grid.
        assert ascended.objective_value <= exhaustive.objective_value + 1e-12

    def test_coordinate_ascent_matches_joint_grid_on_seeded_workload(
        self, tiny_population
    ):
        """CA attains the exhaustive joint optimum on the realistic workload.

        A regression pin, not a theorem: on the seeded 16-host enterprise
        (2-feature any-fusion protocols with shared grids) coordinate ascent
        converges to the grid-joint optimum for every group of all three
        groupings.  If a change to the optimizer or the objective breaks
        this, the co-optimisation quality regressed.
        """
        training = detection_training_distributions(
            tiny_population.matrices(), GOLDEN_FEATURES, week=0
        )
        heuristic = PercentileHeuristic(99.0)
        objective = FusedUtilityObjective(
            fusion=FusionRule.any_(), weight=0.4, attack_sizes=(10.0, 50.0, 100.0)
        )
        hosts = sorted(training[GOLDEN_FEATURES[0]])
        groups = [hosts] + [[host] for host in hosts]  # pooled + per-host
        for group in groups:
            members = [
                {feature: training[feature][host] for feature in GOLDEN_FEATURES}
                for host in group
            ]
            ascended = CoordinateAscentOptimizer(
                num_candidates=16, max_sweeps=32
            ).optimize_group(members, GOLDEN_FEATURES, objective, heuristic)
            exhaustive = GridJointOptimizer(num_candidates=16).optimize_group(
                members, GOLDEN_FEATURES, objective, heuristic
            )
            assert ascended.objective_value == pytest.approx(
                exhaustive.objective_value, abs=1e-12
            ), group

    def test_single_feature_ascent_reproduces_utility_heuristic(self, tiny_population):
        """With one feature the fused objective IS the utility heuristic's.

        Coordinate ascent over the same 200-candidate grid must therefore
        keep the utility heuristic's threshold (ties break toward the start).
        """
        heuristic = UtilityHeuristic(weight=0.4, attack_sizes=(10.0, 50.0, 100.0, 500.0))
        training = detection_training_distributions(
            tiny_population.matrices(), (Feature.TCP_CONNECTIONS,), week=0
        )
        optimizer = CoordinateAscentOptimizer(
            num_candidates=200, weight=0.4, attack_sizes=(10.0, 50.0, 100.0, 500.0)
        )
        plain = HomogeneousPolicy(heuristic).assign(training)
        ascended = HomogeneousPolicy(heuristic, optimizer=optimizer).assign(
            training, fusion=FusionRule.any_()
        )
        feature = Feature.TCP_CONNECTIONS
        assert np.array_equal(
            ascended.for_feature(feature).values, plain.for_feature(feature).values
        )

    def test_grid_joint_rejects_too_many_features(self):
        members = [
            {
                feature: EmpiricalDistribution(np.arange(10.0) + i)
                for i, feature in enumerate(Feature)
            }
        ]
        features = tuple(Feature)[: MAX_JOINT_GRID_FEATURES + 1]
        objective = FusedUtilityObjective(fusion=FusionRule.any_())
        with pytest.raises(ValidationError, match="at most"):
            GridJointOptimizer().optimize_group(
                members, features, objective, PercentileHeuristic(99.0)
            )


class TestFusedObjective:
    def test_alarm_probability_any_and_all(self):
        probs = np.array([[0.1, 0.5], [0.2, 0.25]])
        any_rule = FusionRule.any_().alarm_probability(probs)
        all_rule = FusionRule.all_().alarm_probability(probs)
        expected_any = 1.0 - (1.0 - probs[0]) * (1.0 - probs[1])
        expected_all = probs[0] * probs[1]
        np.testing.assert_allclose(any_rule, expected_any)
        np.testing.assert_allclose(all_rule, expected_all)

    def test_alarm_probability_single_feature_identity(self):
        probs = np.array([[0.0, 0.3, 1.0]])
        np.testing.assert_allclose(FusionRule.any_().alarm_probability(probs), probs[0])

    def test_alarm_probability_k_of_n(self):
        probs = np.array([0.5, 0.5, 0.5])
        two_of_three = FusionRule.k_of_n(2).alarm_probability(probs)
        # P(at least 2 of 3 fair coins) = 0.5
        assert two_of_three == pytest.approx(0.5)

    def test_single_feature_objective_matches_utility_formula(self):
        distribution = EmpiricalDistribution(np.arange(100.0))
        objective = FusedUtilityObjective(
            fusion=FusionRule.any_(), weight=0.4, attack_sizes=(10.0,)
        )
        threshold = 89.5
        fp = exceedances(distribution, threshold)
        fn = 1.0 - exceedances(distribution, threshold - 10.0)
        expected = 1.0 - (0.4 * fn + 0.6 * fp)
        actual = objective.group_scores(
            [{Feature.TCP_CONNECTIONS: distribution}], (Feature.TCP_CONNECTIONS,), [[threshold]]
        )[0]
        assert actual == pytest.approx(expected)

    def test_attack_feature_must_be_evaluated(self):
        objective = FusedUtilityObjective(
            fusion=FusionRule.any_(), attack_feature=Feature.UDP_CONNECTIONS
        )
        with pytest.raises(ValidationError, match="not among"):
            objective.bind(
                [{Feature.TCP_CONNECTIONS: EmpiricalDistribution([1.0, 2.0])}],
                (Feature.TCP_CONNECTIONS,),
            )


def _reference_member_utilities(objective, members, features, candidates):
    """The per-member loop the stacked kernel replaced: the test oracle.

    Scores one member at a time through the ``exceedances`` oracle
    and ``FusionRule.alarm_probability``; never touches ``bind``.
    """
    features = tuple(features)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    target = objective.target_index(features)
    sizes = np.asarray(objective.attack_sizes, dtype=float)
    shifted = candidates[:, target][None, :] - sizes[:, None] if sizes.size else None
    utilities = np.empty((candidates.shape[0], len(members)))
    for member_index, member in enumerate(members):
        alert = np.stack(
            [exceedances(member[feature], candidates[:, i]) for i, feature in enumerate(features)]
        )
        false_positive = objective.fusion.alarm_probability(alert)
        if shifted is None:
            false_negative = np.zeros_like(false_positive)
        else:
            attacked = np.repeat(alert[:, None, :], sizes.size, axis=1)
            attacked[target] = exceedances(member[features[target]], shifted)
            detection = objective.fusion.alarm_probability(attacked)
            false_negative = np.mean(1.0 - detection, axis=0)
        utilities[:, member_index] = 1.0 - (
            objective.weight * false_negative + (1.0 - objective.weight) * false_positive
        )
    return utilities


def _reference_coordinate_ascent(optimizer, members, features, objective, heuristic, warm_start):
    """One group's coordinate ascent as it ran before groups moved in lockstep."""

    def scores(candidates):
        return np.mean(
            _reference_member_utilities(objective, members, features, candidates), axis=1
        )

    start = independent_thresholds([members], features, heuristic)[0]
    grids = _feature_grids([members], features, optimizer.num_candidates, [(start, warm_start)])[0]
    vector = np.array([start[feature] for feature in features])
    best = float(scores(vector)[0])
    if warm_start is not None:
        warm_vector = np.array([warm_start[feature] for feature in features])
        warm_score = float(scores(warm_vector)[0])
        if warm_score > best:
            best, vector = warm_score, warm_vector
    iterations = 0
    for _ in range(optimizer.max_sweeps):
        iterations += 1
        before = best
        for index, grid in enumerate(grids):
            candidates = np.tile(vector, (grid.size, 1))
            candidates[:, index] = grid
            group = scores(candidates)
            winner = int(np.argmax(group))
            if group[winner] > best:
                best = float(group[winner])
                vector = candidates[winner]
        if best - before <= optimizer.tolerance:
            break
    thresholds = {feature: float(vector[i]) for i, feature in enumerate(features)}
    return thresholds, best, iterations


#: No sizes, a few, or 8-12: from 8 on, numpy sums a lone candidate's sizes
#: pairwise rather than in sequence, so the kernel must reproduce both orders.
_SIZE = st.floats(min_value=0.0, max_value=150.0, allow_nan=False)
_ANY_ATTACK_SIZES = st.one_of(
    st.lists(_SIZE, max_size=3), st.lists(_SIZE, min_size=8, max_size=12)
).map(tuple)


@st.composite
def _objective_cases(draw, max_members=5):
    """An objective, members with unequal sample counts, and its features."""
    features = OPTIMIZER_FEATURES[: draw(st.integers(min_value=1, max_value=3))]
    members = draw(_member_groups(features=features, max_members=max_members))
    objective = FusedUtilityObjective(
        fusion=draw(_FUSIONS),
        weight=draw(st.floats(min_value=0.0, max_value=1.0)),
        attack_sizes=draw(_ANY_ATTACK_SIZES),
        attack_feature=draw(st.sampled_from([None, features[-1]])),
    )
    return objective, members, features


def _candidates(draw, shape):
    size = int(np.prod(shape))
    values = st.floats(min_value=-5.0, max_value=130.0, allow_nan=False)
    return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)


def _poisson_members(rng, lengths, mean):
    """One member per entry ``n`` of ``lengths``: ``n`` Poisson samples per feature."""
    return [
        {feature: EmpiricalDistribution(rng.poisson(mean, n)) for feature in OPTIMIZER_FEATURES}
        for n in lengths
    ]


class TestFusedUtilityKernel:
    """The stacked kernel equals the per-member reference loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_objective_cases(), data=st.data())
    def test_member_utilities_match_reference(self, case, data):
        objective, members, features = case
        num_candidates = data.draw(st.integers(min_value=1, max_value=6))
        candidates = _candidates(data.draw, (num_candidates, len(features)))
        actual = objective.member_utilities(members, features, candidates)
        expected = _reference_member_utilities(objective, members, features, candidates)
        assert actual.flags.c_contiguous
        assert np.array_equal(actual, expected)

    @settings(max_examples=150, deadline=None)
    @given(case=_objective_cases(), data=st.data())
    def test_per_row_candidates_match_reference(self, case, data):
        """``(R, C, F)`` candidates score each row on its own grid."""
        objective, members, features = case
        num_candidates = data.draw(st.integers(min_value=1, max_value=6))
        candidates = _candidates(data.draw, (len(members), num_candidates, len(features)))
        actual = objective.bind(members, features).utilities(candidates)
        expected = np.concatenate(
            [
                _reference_member_utilities(objective, [member], features, grid)
                for member, grid in zip(members, candidates, strict=True)
            ],
            axis=1,
        )
        assert actual.flags.c_contiguous
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_rows_straddling_blocks_match_reference(self, per_row):
        rng = np.random.default_rng(17)
        sizes = (10.0, 50.0, 100.0, 500.0)
        objective = FusedUtilityObjective(fusion=FusionRule.k_of_n(2), attack_sizes=sizes)
        members = _poisson_members(rng, [60 + 7 * index for index in range(7)], 40.0)
        # Three rows per block, so the seven rows split 3 + 3 + 1.
        num_candidates = ROW_BLOCK_ELEMENTS // (len(OPTIMIZER_FEATURES) * (len(sizes) + 1) * 3)
        shape = (len(members),) * per_row + (num_candidates, len(OPTIMIZER_FEATURES))
        candidates = rng.uniform(0.0, 120.0, size=shape)
        actual = objective.bind(members, OPTIMIZER_FEATURES).utilities(candidates)
        grids = candidates if per_row else [candidates] * len(members)
        expected = np.concatenate(
            [
                _reference_member_utilities(objective, [member], OPTIMIZER_FEATURES, grid)
                for member, grid in zip(members, grids, strict=True)
            ],
            axis=1,
        )
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("fusion", [FusionRule.k_of_n(2), FusionRule.all_()])
    def test_lone_candidate_with_many_sizes_matches_reference(self, fusion):
        """With 8+ sizes a lone candidate's sizes sum pairwise, as per member."""
        rng = np.random.default_rng(5)
        members = _poisson_members(rng, [50 + index for index in range(16)], 40.0)
        sizes = tuple(float(size) for size in range(2, 22, 2))
        objective = FusedUtilityObjective(fusion=fusion, weight=0.4, attack_sizes=sizes)
        vector = np.array([45.0, 42.0, 47.0])
        actual = objective.member_utilities(members, OPTIMIZER_FEATURES, vector)
        expected = _reference_member_utilities(objective, members, OPTIMIZER_FEATURES, vector)
        assert np.array_equal(actual, expected)
        per_row = np.tile(vector, (len(members), 1, 1))
        bound = objective.bind(members, OPTIMIZER_FEATURES)
        assert np.array_equal(bound.utilities(per_row), expected)

    def test_kernel_memory_is_bounded(self):
        """Row blocks bound the stacked arrays: stacking all 64 rows at once
        would need ~24 MB for the attacked block alone."""
        rng = np.random.default_rng(2009)
        members = _poisson_members(rng, [2016] * 64, 30.0)
        candidates = rng.uniform(0.0, 80.0, size=(4000, len(OPTIMIZER_FEATURES)))
        objective = FusedUtilityObjective(
            fusion=FusionRule.k_of_n(2), attack_sizes=(10.0, 50.0, 100.0, 500.0)
        )
        tracemalloc.start()
        try:
            utilities = objective.member_utilities(members, OPTIMIZER_FEATURES, candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert utilities.shape == (4000, 64)
        assert peak < 8 * 2**20, peak

    @pytest.mark.parametrize("kind", ["partial", "full-diversity"])
    def test_independent_report_matches_per_vector_sum(self, fixture_training, kind):
        """One kernel call over every host reports what per-vector calls did."""
        training = fixture_training[0]
        sizes = tuple(float(size) for size in np.linspace(5.0, 120.0, 10))
        optimizer = IndependentOptimizer(weight=0.4, attack_sizes=sizes)
        heuristic = UtilityHeuristic(weight=0.4)
        if kind == "partial":
            policy = PartialDiversityPolicy(heuristic, num_groups=4, optimizer=optimizer)
        else:
            policy = FullDiversityPolicy(heuristic, optimizer=optimizer)
        fusion = FusionRule.k_of_n(2)
        assignment = policy.assign(training, fusion=fusion)
        columns = np.stack([assignment.for_feature(f).values for f in OPTIMIZER_FEATURES], axis=1)
        by_vector = {}
        for host, vector in zip(assignment.host_ids, map(tuple, columns.tolist()), strict=True):
            by_vector.setdefault(vector, []).append(host)
        assert len(by_vector) > 1
        total = 0.0
        for vector, hosts in by_vector.items():
            members = [{f: training[f][host] for f in OPTIMIZER_FEATURES} for host in hosts]
            utilities = _reference_member_utilities(
                optimizer.objective(fusion), members, OPTIMIZER_FEATURES, vector
            )
            total += float(np.sum(utilities))
        assert assignment.optimization.objective_value == total / len(assignment.host_ids)


class TestLockstepCoordinateAscent:
    """Every group moving in lockstep selects exactly what one group alone did."""

    @pytest.mark.parametrize("max_sweeps", [3, 8])
    @pytest.mark.parametrize("fusion", [FusionRule.k_of_n(2), FusionRule.all_()])
    def test_groups_match_per_group_runs(self, fixture_training, fusion, max_sweeps):
        """Groups of 1, 3 and 7 hosts, half warm-started, converging in different sweeps."""
        heuristic = PercentileHeuristic(99.0)
        optimizer = CoordinateAscentOptimizer(weight=0.4, max_sweeps=max_sweeps)
        objective = optimizer.objective(fusion)
        hosts = sorted(fixture_training[0][OPTIMIZER_FEATURES[0]])
        bounds = np.cumsum([0, 1, 3, 7, 1, 3, 7])
        week0, week1 = (
            [
                [{f: training[f][host] for f in OPTIMIZER_FEATURES} for host in hosts[lo:hi]]
                for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            ]
            for training in fixture_training
        )
        previous = optimizer.optimize_groups(week0, OPTIMIZER_FEATURES, objective, heuristic)
        warm_starts = [
            result.thresholds if index % 2 == 0 else None for index, result in enumerate(previous)
        ]
        for groups, warm in ((week0, None), (week1, warm_starts)):
            together = optimizer.optimize_groups(
                groups, OPTIMIZER_FEATURES, objective, heuristic, warm_starts=warm
            )
            assert len(together) == len(groups)
            assert len({result.iterations for result in together}) >= 2
            for index, (members, result) in enumerate(zip(groups, together, strict=True)):
                warm_start = warm[index] if warm is not None else None
                alone = optimizer.optimize_group(
                    members, OPTIMIZER_FEATURES, objective, heuristic, warm_start=warm_start
                )
                assert result == alone, index
                reference = _reference_coordinate_ascent(
                    optimizer, members, OPTIMIZER_FEATURES, objective, heuristic, warm_start
                )
                assert (result.thresholds, result.objective_value, result.iterations) == reference

    @settings(max_examples=40, deadline=None)
    @given(
        groups=st.lists(_member_groups(max_members=9), min_size=1, max_size=4),
        fusion=_FUSIONS,
        sizes=_ANY_ATTACK_SIZES,
    )
    def test_random_groups_match_reference_ascent(self, groups, fusion, sizes):
        heuristic = PercentileHeuristic(99.0)
        optimizer = CoordinateAscentOptimizer(num_candidates=6, max_sweeps=5, attack_sizes=sizes)
        objective = optimizer.objective(fusion)
        together = optimizer.optimize_groups(groups, GOLDEN_FEATURES, objective, heuristic)
        for members, result in zip(groups, together, strict=True):
            reference = _reference_coordinate_ascent(
                optimizer, members, GOLDEN_FEATURES, objective, heuristic, None
            )
            assert (result.thresholds, result.objective_value, result.iterations) == reference

    def test_base_optimizer_loops_optimize_group(self, fixture_training):
        heuristic = UtilityHeuristic(weight=0.4)
        optimizer = GridJointOptimizer(weight=0.4, num_candidates=6)
        objective = optimizer.objective(FusionRule.any_())
        training = fixture_training[0]
        hosts = sorted(training[OPTIMIZER_FEATURES[0]])
        groups = [
            [{f: training[f][host] for f in OPTIMIZER_FEATURES} for host in hosts[:5]],
            [{f: training[f][host] for f in OPTIMIZER_FEATURES} for host in hosts[5:6]],
        ]
        assert optimizer.optimize_groups(groups, OPTIMIZER_FEATURES, objective, heuristic) == [
            optimizer.optimize_group(members, OPTIMIZER_FEATURES, objective, heuristic)
            for members in groups
        ]


class TestEvaluationProvenance:
    def test_evaluate_policy_records_optimizer_report(self, tiny_population):
        protocol = DetectionProtocol(
            features=GOLDEN_FEATURES, fusion=FusionRule.any_(), utility_weight=0.4
        )
        optimizer = CoordinateAscentOptimizer(num_candidates=16, weight=0.4)
        policy = HomogeneousPolicy(PercentileHeuristic(99.0), optimizer=optimizer)
        evaluation = evaluate_policy(tiny_population.matrices(), policy, protocol)
        report = evaluation.optimization
        assert report is not None
        assert report.optimizer == "coordinate-ascent"
        assert report.iterations >= 1
        assert np.isfinite(report.objective_value)

        outcome = summarize_scenario(evaluation)
        assert outcome.optimizer == "coordinate-ascent"
        assert outcome.objective_value == pytest.approx(report.objective_value)
        assert outcome.optimizer_iterations == report.iterations
        payload = outcome.to_dict()
        assert payload["optimizer"] == "coordinate-ascent"
        assert payload["optimizer_iterations"] == report.iterations

    def test_heuristic_only_outcome_reports_none(self, tiny_population):
        protocol = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))
        policy = HomogeneousPolicy(PercentileHeuristic(99.0))
        evaluation = evaluate_policy(tiny_population.matrices(), policy, protocol)
        assert evaluation.optimization is None
        outcome = summarize_scenario(evaluation)
        assert outcome.optimizer == "none"
        assert outcome.objective_value is None
        assert outcome.optimizer_iterations == 0

    def test_joint_assignment_shares_one_grouping(self, tiny_population):
        """Joint optimizers configure every feature under the same grouping."""
        training = detection_training_distributions(
            tiny_population.matrices(), GOLDEN_FEATURES, week=0
        )
        policy = PartialDiversityPolicy(
            PercentileHeuristic(99.0),
            optimizer=CoordinateAscentOptimizer(num_candidates=8),
        )
        assignment = policy.assign(training, fusion=FusionRule.any_())
        groupings = {
            tuple(map(tuple, assignment.for_feature(feature).grouping.groups))
            for feature in GOLDEN_FEATURES
        }
        assert len(groupings) == 1


class TestBinWidthPooling:
    """`thresholds_for_groups` must not pool incomparable per-bin counts."""

    def test_pooled_rejects_conflicting_widths(self):
        narrow = EmpiricalDistribution([1.0, 2.0], bin_width=60.0)
        wide = EmpiricalDistribution([10.0, 20.0], bin_width=300.0)
        with pytest.raises(ValidationError, match="bin widths"):
            EmpiricalDistribution.pooled([narrow, wide])

    def test_threshold_for_group_rejects_mixed_widths(self):
        narrow = EmpiricalDistribution(np.arange(50.0), bin_width=60.0)
        wide = EmpiricalDistribution(np.arange(50.0) * 5.0, bin_width=300.0)
        for heuristic in (
            PercentileHeuristic(99.0),
            MeanStdHeuristic(3.0),
            UtilityHeuristic(weight=0.4, attack_sizes=(10.0,)),
            FMeasureHeuristic(attack_sizes=(10.0,)),
        ):
            with pytest.raises(ValidationError, match="bin widths"):
                heuristic.thresholds_for_groups([[narrow, wide]])

    def test_unknown_width_is_compatible(self):
        tagged = EmpiricalDistribution([1.0, 2.0], bin_width=60.0)
        untagged = EmpiricalDistribution([3.0, 4.0])
        pooled = EmpiricalDistribution.pooled([tagged, untagged])
        assert pooled.bin_width == 60.0
        assert len(pooled) == 4
        assert common_bin_width([untagged, untagged]) is None

    def test_training_distributions_tag_measurement_width(self, tiny_population):
        matrices = tiny_population.matrices()
        distributions = training_distributions(matrices, Feature.TCP_CONNECTIONS, week=0)
        host_id = next(iter(matrices))
        expected = matrices[host_id].series(Feature.TCP_CONNECTIONS).bin_width
        assert all(dist.bin_width == expected for dist in distributions.values())

    def test_series_distribution_tagged_at_source(self, tiny_population):
        """The training kernel tags every distribution with its series' measurement
        width, so mixed-width pooling is rejected whatever path built it."""
        tcp = Feature.TCP_CONNECTIONS
        matrix = next(iter(tiny_population.matrices().values()))
        series = matrix.series(tcp)
        coarse = FeatureMatrix(matrix.host_id, {tcp: rebin(series, 2)})
        fine_dist = series_distributions({0: matrix}, (tcp,))[tcp][0]
        coarse_dist = series_distributions({0: coarse}, (tcp,))[tcp][0]
        assert fine_dist.bin_width == series.bin_width
        assert coarse_dist.bin_width == 2 * series.bin_width
        with pytest.raises(ValidationError, match="bin widths"):
            EmpiricalDistribution.pooled([fine_dist, coarse_dist])

    def test_candidate_grid_contains_headroom(self):
        distribution = EmpiricalDistribution(np.arange(100.0))
        grid, counts = candidate_threshold_grids([distribution], 16)
        assert counts.tolist() == [grid.size]
        assert grid[-1] > distribution.max()
        assert np.all(np.diff(grid) > 0)
