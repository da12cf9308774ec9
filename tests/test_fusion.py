"""Tests for feature-set detection: fusion rules, multi-feature evaluation,
and the single-feature golden fixtures (which must stay bit-identical)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from helpers import fuse
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import DetectionProtocol, evaluate_policy
from repro.core.experiment import summarize_scenario
from repro.core.fusion import FusionRule
from repro.core.policies import FullDiversityPolicy, HomogeneousPolicy
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.utils.records import parse, plain
from repro.utils.timeutils import BinSpec, HOUR
from repro.utils.validation import ValidationError

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_single_feature.json"

FEATURE_A = Feature.TCP_CONNECTIONS
FEATURE_B = Feature.DNS_CONNECTIONS
FEATURE_C = Feature.UDP_CONNECTIONS

#: 6-hour bins keep hypothesis populations small: 28 bins/week, 2 weeks.
_BIN = BinSpec(width=6 * HOUR)
_BINS_PER_WEEK = 28


class TestFusionRule:
    def test_required_votes(self):
        assert FusionRule.any_().required_votes(5) == 1
        assert FusionRule.all_().required_votes(5) == 5
        assert FusionRule.k_of_n(3).required_votes(5) == 3

    def test_k_clamped_to_feature_count(self):
        # k_of_n stays meaningful when swept across feature-set sizes.
        assert FusionRule.k_of_n(3).required_votes(2) == 2
        assert FusionRule.k_of_n(3).required_votes(1) == 1

    def test_fuse_matrix(self):
        indicators = np.array([[True, True, False, False], [True, False, True, False]])
        assert fuse(FusionRule.any_(), indicators).tolist() == [True, True, True, False]
        assert fuse(FusionRule.all_(), indicators).tolist() == [True, False, False, False]
        assert fuse(FusionRule.k_of_n(2), indicators).tolist() == [True, False, False, False]

    def test_fuse_single_row(self):
        row = np.array([True, False, True])
        for rule in (FusionRule.any_(), FusionRule.all_(), FusionRule.k_of_n(1)):
            assert fuse(rule, row).tolist() == row.tolist()

    def test_names(self):
        assert FusionRule.any_().name == "any"
        assert FusionRule.all_().name == "all"
        assert FusionRule.k_of_n(2).name == "2-of-n"

    def test_round_trip(self):
        # A rule is stored as its two fields and read back as a scenario's
        # evaluation.fusion section.
        for rule in (FusionRule.any_(), FusionRule.all_(), FusionRule.k_of_n(4)):
            assert plain(rule) == {"rule": rule.rule, "k": rule.k}
            assert parse(FusionRule, plain(rule), "evaluation.fusion") == rule

    def test_validation(self):
        with pytest.raises(ValidationError):
            FusionRule(rule="majority")
        with pytest.raises(ValidationError):
            FusionRule.k_of_n(0)
        with pytest.raises(ValidationError, match="evaluation.fusion: unknown field"):
            parse(FusionRule, {"rule": "any", "votes": 2}, "evaluation.fusion")


class TestDetectionProtocol:
    def test_features_normalised_to_tuple(self):
        assert DetectionProtocol(features=FEATURE_A).features == (FEATURE_A,)
        assert DetectionProtocol(features=[FEATURE_A, FEATURE_B]).features == (
            FEATURE_A,
            FEATURE_B,
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            DetectionProtocol(features=())
        with pytest.raises(ValidationError):
            DetectionProtocol(features=(FEATURE_A, FEATURE_A))
        with pytest.raises(ValidationError):
            DetectionProtocol(features=(FEATURE_A,), train_week=1, test_week=1)

    def test_default_fusion_is_any(self):
        assert DetectionProtocol(features=(FEATURE_A, FEATURE_B)).fusion == FusionRule.any_()

    def test_single_feature_accessor(self):
        assert DetectionProtocol(features=(FEATURE_A,)).feature == FEATURE_A
        with pytest.raises(ValidationError):
            _ = DetectionProtocol(features=(FEATURE_A, FEATURE_B)).feature


def _matrix(host_id: int, values_by_feature) -> FeatureMatrix:
    return FeatureMatrix(
        host_id=host_id,
        series={
            feature: TimeSeries(np.asarray(values, dtype=float), _BIN)
            for feature, values in values_by_feature.items()
        },
    )


def _two_feature_population(rng_seed: int = 3, num_hosts: int = 4):
    rng = np.random.default_rng(rng_seed)
    matrices = {}
    for host_id in range(num_hosts):
        matrices[host_id] = _matrix(
            host_id,
            {
                FEATURE_A: rng.poisson(20, 2 * _BINS_PER_WEEK),
                FEATURE_B: rng.poisson(8, 2 * _BINS_PER_WEEK),
            },
        )
    return matrices


def _naive_builder(feature: Feature, size: float):
    return NaiveAttacker(feature=feature, attack_size=size).builder()


class TestMultiFeatureEvaluation:
    def test_any_fusion_fp_at_least_per_feature_fp(self):
        matrices = _two_feature_population()
        protocol = DetectionProtocol(
            features=(FEATURE_A, FEATURE_B), fusion=FusionRule.any_()
        )
        evaluation = evaluate_policy(matrices, FullDiversityPolicy(), protocol)
        for perf in evaluation.performances.values():
            fused = perf.false_positive_rate
            assert fused >= perf.feature_point(FEATURE_A).false_positive_rate
            assert fused >= perf.feature_point(FEATURE_B).false_positive_rate

    def test_fused_alarm_counts_match_rates(self):
        matrices = _two_feature_population()
        protocol = DetectionProtocol(
            features=(FEATURE_A, FEATURE_B), fusion=FusionRule.k_of_n(2)
        )
        evaluation = evaluate_policy(matrices, FullDiversityPolicy(), protocol)
        for perf in evaluation.performances.values():
            num_bins = _BINS_PER_WEEK
            assert perf.false_positive_rate == pytest.approx(
                perf.false_alarm_count / num_bins
            )

    def test_attack_on_secondary_feature_detected_under_any(self):
        matrices = _two_feature_population()
        builder = _naive_builder(FEATURE_B, 500.0)
        any_eval = evaluate_policy(
            matrices,
            FullDiversityPolicy(),
            DetectionProtocol(features=(FEATURE_A, FEATURE_B), fusion=FusionRule.any_()),
            attack_builder=builder,
        )
        # The blatant attack on feature B is caught on every host even though
        # feature A sees nothing.
        assert any_eval.fraction_raising_alarm() == 1.0
        for perf in any_eval.performances.values():
            assert perf.feature_alarm_raised[FEATURE_B] is True
            assert perf.feature_alarm_raised[FEATURE_A] is None

    def test_summarize_multi_feature_outcome(self):
        matrices = _two_feature_population()
        protocol = DetectionProtocol(
            features=(FEATURE_A, FEATURE_B), fusion=FusionRule.k_of_n(2)
        )
        evaluation = evaluate_policy(
            matrices, HomogeneousPolicy(), protocol, attack_builder=_naive_builder(FEATURE_A, 50.0)
        )
        outcome = summarize_scenario(evaluation)
        assert outcome.fusion == "2-of-n"
        assert outcome.num_features == 2
        assert outcome.feature == f"{FEATURE_A.value}+{FEATURE_B.value}"
        assert set(outcome.per_feature) == {FEATURE_A.value, FEATURE_B.value}
        for metrics in outcome.per_feature.values():
            assert 0.0 <= metrics["mean_false_positive_rate"] <= 1.0
            assert metrics["distinct_thresholds"] == 1
        # Serialisation round-trips, including the per-feature table.
        from repro.core.experiment import ScenarioOutcome

        assert ScenarioOutcome.from_dict(outcome.to_dict()) == outcome

    def test_outcome_from_dict_tolerates_legacy_records(self):
        from repro.core.experiment import ScenarioOutcome

        legacy = {
            "policy_name": "homogeneous",
            "feature": "num_tcp_connections",
            "num_hosts": 5,
            "mean_utility": 0.5,
            "median_utility": 0.5,
            "mean_false_positive_rate": 0.01,
            "mean_false_negative_rate": 0.2,
            "mean_detection_rate": 0.8,
            "mean_f_measure": 0.3,
            "total_false_alarms": 7,
            "fraction_raising_alarm": 0.4,
            "distinct_thresholds": 1,
        }
        outcome = ScenarioOutcome.from_dict(legacy)
        assert outcome.fusion == "any"
        assert outcome.num_features == 1
        assert outcome.per_feature == {}

    def test_threshold_aware_attack_builder_receives_thresholds(self):
        matrices = _two_feature_population()
        seen = {}

        def builder(batch):
            for index, host_id in enumerate(batch.host_ids):
                seen[host_id] = {f: float(t[index]) for f, t in batch.thresholds.items()}
            return None  # noqa: RET501  # None is the builder contract for "no attack"

        protocol = DetectionProtocol(features=(FEATURE_A, FEATURE_B))
        evaluation = evaluate_policy(matrices, FullDiversityPolicy(), protocol, builder)
        assert set(seen) == set(matrices)
        for host_id, thresholds in seen.items():
            assert thresholds == evaluation.performances[host_id].thresholds


class TestSingleFeatureGolden:
    @pytest.mark.skipif(not GOLDEN_PATH.is_file(), reason="golden file not present")
    def test_single_feature_outcomes_bit_identical_to_pre_redesign(self):
        """The acceptance check: the feature-set path reproduces the
        ScenarioOutcomes captured from the pre-redesign API bit for bit."""
        from repro.engine import PopulationEngine
        from repro.sweeps import ScenarioSpec
        from repro.sweeps.runner import run_scenario

        golden = json.loads(GOLDEN_PATH.read_text())
        engine = PopulationEngine(workers=1, use_cache=False)
        populations = {}
        for entry in golden:
            spec = ScenarioSpec.from_dict(entry["spec"])
            key = json.dumps(entry["spec"]["population"], sort_keys=True)
            if key not in populations:
                populations[key] = engine.generate(spec.population.to_config())
            population = populations[key]

            # The feature-set path (what the sweep runner executes today).
            outcome = run_scenario(spec, population).to_dict()
            for metric, value in entry["outcome"].items():
                assert outcome[metric] == value, (spec.name, metric)


@st.composite
def _population_strategy(draw, num_features: int):
    """A tiny multi-host, multi-feature population of non-negative counts."""
    features = (FEATURE_A, FEATURE_B, FEATURE_C)[:num_features]
    num_hosts = draw(st.integers(min_value=1, max_value=3))
    matrices = {}
    for host_id in range(num_hosts):
        values_by_feature = {}
        for feature in features:
            values = draw(
                st.lists(
                    st.integers(min_value=0, max_value=60),
                    min_size=2 * _BINS_PER_WEEK,
                    max_size=2 * _BINS_PER_WEEK,
                )
            )
            values_by_feature[feature] = values
        matrices[host_id] = _matrix(host_id, values_by_feature)
    return matrices


class TestFusionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        matrices=_population_strategy(num_features=1),
        attack_size=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_k_of_n_1_over_single_feature_is_exactly_legacy(self, matrices, attack_size):
        """k_of_n(1) over one feature IS the default-fusion single-feature evaluation."""
        builder = _naive_builder(FEATURE_A, attack_size)
        fused = evaluate_policy(
            matrices,
            FullDiversityPolicy(),
            DetectionProtocol(features=(FEATURE_A,), fusion=FusionRule.k_of_n(1)),
            attack_builder=builder,
        )
        legacy = evaluate_policy(
            matrices,
            FullDiversityPolicy(),
            DetectionProtocol(features=(FEATURE_A,)),
            attack_builder=builder,
        )
        assert fused.performances == legacy.performances
        fused_outcome = summarize_scenario(fused).to_dict()
        legacy_outcome = summarize_scenario(legacy).to_dict()
        # Only the fusion *label* may differ ("1-of-n" vs "any"); every metric
        # must be bit-identical.
        fused_outcome.pop("fusion")
        legacy_outcome.pop("fusion")
        assert fused_outcome == legacy_outcome

    @settings(max_examples=25, deadline=None)
    @given(matrices=_population_strategy(num_features=3))
    def test_all_fusion_fp_never_exceeds_any_per_feature_fp(self, matrices):
        """all-fusion only alarms where every feature alarms, so its FP rate is
        bounded by each per-feature FP rate on the same population."""
        protocol = DetectionProtocol(
            features=(FEATURE_A, FEATURE_B, FEATURE_C), fusion=FusionRule.all_()
        )
        evaluation = evaluate_policy(matrices, HomogeneousPolicy(), protocol)
        for perf in evaluation.performances.values():
            for feature in protocol.features:
                assert (
                    perf.false_positive_rate
                    <= perf.feature_point(feature).false_positive_rate + 1e-12
                )
