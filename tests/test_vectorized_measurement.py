"""Bit-identity regression tests for the vectorised measurement path.

``tests/data/golden_measurement.json`` was captured by
``scripts/dev_capture_golden.py`` running the pre-vectorisation per-host
measurement loop: 54 policy x protocol x attack cases at repr precision, the
Figure 4(b) hidden-traffic ingredient and a full small-scale fig4 run.  The
batched array path must reproduce every float bit for bit.

``tests/data/golden_figures.json`` (same script) holds Figure 3 and Table 3
at the same small scale, captured while fig3 still
re-trained and re-assigned every policy once per attack size; the
assign-once fig3 must match it bit for bit too.

The second half cross-checks ``_measure_assignment_batched`` against the
retained per-host reference loop on fresh populations, covering the
measure-only entry points (explicit test weeks, stale attack assignments)
the golden fixture does not exercise.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.attacks.mimicry import hidden_traffic_by_host
from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import (
    DetectionProtocol,
    _measure_assignment_batched,
    _measure_assignment_per_host,
    _adapt_attack_builder,
    detection_training_distributions,
    evaluate_policy,
    measure_assignment,
    training_distributions,
)
from repro.core.fusion import FusionRule
from repro.core.policies import (
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic
from repro.experiments.fig3_utility import run_fig3
from repro.experiments.fig4_attacker import run_fig4
from repro.experiments.table3_alarms import run_table3
from repro.features.definitions import Feature
from repro.sweeps.spec import AttackSpec
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_measurement.json"
FIGURES_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_figures.json"

CONFIG = EnterpriseConfig(num_hosts=24, num_weeks=2, seed=77)

ATTACKS = {
    "none": AttackSpec(kind="none"),
    "naive": AttackSpec(kind="naive", size=35.0, active_fraction=0.6, seed=1701),
    "naive-always": AttackSpec(kind="naive", size=12.0, active_fraction=1.0, seed=1701),
    "mimicry": AttackSpec(kind="mimicry", evasion_probability=0.9, seed=1701),
    "botnet": AttackSpec(
        kind="botnet",
        size=25.0,
        active_fraction=0.8,
        compromise_probability=0.7,
        command_and_control="p2p",
        control_size=5.0,
        seed=1701,
    ),
    "storm": AttackSpec(kind="storm", seed=1701),
}

PROTOCOLS = {
    "single": DetectionProtocol(features=(Feature.TCP_CONNECTIONS,)),
    "multi-any": DetectionProtocol(
        features=(Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS),
        fusion=FusionRule.any_(),
    ),
    "multi-2ofn": DetectionProtocol(
        features=(Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS),
        fusion=FusionRule.k_of_n(2),
    ),
}


def _policies():
    heuristic = PercentileHeuristic(99.0)
    return {
        "homogeneous": HomogeneousPolicy(heuristic),
        "full-diversity": FullDiversityPolicy(heuristic),
        "partial": PartialDiversityPolicy(heuristic, num_groups=4),
    }


def _perf_payload(perf) -> dict:
    return {
        "thresholds": {f.value: repr(float(t)) for f, t in perf.thresholds.items()},
        "feature_fp": {
            f.value: repr(float(p.false_positive_rate))
            for f, p in perf.feature_operating_points.items()
        },
        "feature_fn": {
            f.value: repr(float(p.false_negative_rate))
            for f, p in perf.feature_operating_points.items()
        },
        "feature_counts": {f.value: int(c) for f, c in perf.feature_false_alarm_counts.items()},
        "feature_alarm": {f.value: perf.feature_alarm_raised.get(f) for f in perf.thresholds},
        "fp": repr(float(perf.operating_point.false_positive_rate)),
        "fn": repr(float(perf.operating_point.false_negative_rate)),
        "false_alarm_count": int(perf.false_alarm_count),
        "alarm_raised": perf.alarm_raised,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_figures():
    return json.loads(FIGURES_GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_population():
    return generate_enterprise(CONFIG)


@pytest.fixture(scope="module")
def matrices(golden_population):
    return golden_population.matrices()


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_cases_match_pre_vectorisation_fixture(
        self, golden, matrices, proto_name, attack_name
    ):
        protocol = PROTOCOLS[proto_name]
        attack = ATTACKS[attack_name]
        builder = attack.build_builder(protocol.primary_feature, CONFIG.bin_width)
        for policy_name, policy in _policies().items():
            evaluation = evaluate_policy(matrices, policy, protocol, attack_builder=builder)
            expected = golden["cases"][f"{proto_name}/{attack_name}/{policy_name}"]
            actual = {
                str(host_id): _perf_payload(perf)
                for host_id, perf in sorted(evaluation.performances.items())
            }
            assert actual == expected

    def test_hidden_traffic_matches_fixture(self, golden, matrices):
        train = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0)
        test_matrices = {host_id: m.week(1) for host_id, m in matrices.items()}
        for policy_name, policy in _policies().items():
            assignment = policy.compute_thresholds(train)
            hidden = hidden_traffic_by_host(
                test_matrices, assignment.thresholds, Feature.TCP_CONNECTIONS
            )
            actual = {str(h): repr(float(v)) for h, v in sorted(hidden.items())}
            assert actual == golden["hidden_traffic"][policy_name]

    def test_fig4_matches_fixture(self, golden):
        population = generate_enterprise(EnterpriseConfig(num_hosts=16, num_weeks=2, seed=41))
        result = run_fig4(population, num_attack_sizes=6)
        assert [repr(float(s)) for s in result.attack_sizes] == golden["fig4"]["attack_sizes"]
        for name, values in result.detection_curves.items():
            assert [repr(float(v)) for v in values] == golden["fig4"]["detection_curves"][name]
        for name, values in result.hidden_traffic.items():
            actual = {str(h): repr(float(v)) for h, v in sorted(values.items())}
            assert actual == golden["fig4"]["hidden_traffic"][name]

    def test_fig3_matches_fixture(self, golden_figures, golden_population):
        assert golden_figures["config"] == {"num_hosts": 24, "num_weeks": 2, "seed": 77}
        result = run_fig3(golden_population)
        expected = golden_figures["fig3"]
        assert [repr(float(w)) for w in result.weights] == expected["weights"]
        boxplots = {
            name: {key: repr(float(value)) for key, value in summary.to_dict().items()}
            for name, summary in result.boxplots.items()
        }
        assert boxplots == expected["boxplots"]
        weight_sweep = {
            name: [repr(float(v)) for v in values] for name, values in result.weight_sweep.items()
        }
        assert weight_sweep == expected["weight_sweep"]
        assert set(result.evaluations) == set(expected["evaluations"])
        for name, evaluation in result.evaluations.items():
            actual = {
                str(host_id): _perf_payload(perf)
                for host_id, perf in sorted(evaluation.performances.items())
            }
            assert actual == expected["evaluations"][name]

    def test_table3_matches_fixture(self, golden_figures, golden_population):
        result = run_table3(golden_population)
        alarms = {
            heuristic: {policy: repr(float(count)) for policy, count in row.items()}
            for heuristic, row in result.alarms.items()
        }
        assert alarms == golden_figures["table3"]["alarms"]


def _measure_both(matrices, assignment, protocol, builder=None, week=None, attack_assignment=None):
    adapted = _adapt_attack_builder(builder)
    test_week = protocol.test_week if week is None else week
    batched = _measure_assignment_batched(
        matrices, assignment, protocol.features, protocol.fusion, adapted, test_week,
        attack_assignment,
    )
    reference = _measure_assignment_per_host(
        matrices, assignment, protocol.features, protocol.fusion, adapted, test_week,
        attack_assignment,
    )
    return batched, reference


class TestBatchedEqualsPerHostLoop:
    @pytest.fixture(scope="class")
    def population(self):
        return generate_enterprise(EnterpriseConfig(num_hosts=12, num_weeks=4, seed=909))

    @pytest.mark.parametrize("proto_name", list(PROTOCOLS))
    @pytest.mark.parametrize("attack_name", list(ATTACKS))
    def test_equal_on_all_cases(self, population, proto_name, attack_name):
        protocol = PROTOCOLS[proto_name]
        matrices = population.matrices()
        builder = ATTACKS[attack_name].build_builder(
            protocol.primary_feature, population.config.bin_width
        )
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = FullDiversityPolicy(PercentileHeuristic(99.0)).assign(
            training, fusion=protocol.fusion
        )
        batched, reference = _measure_both(matrices, assignment, protocol, builder)
        assert batched == reference

    def test_equal_on_explicit_test_week(self, population):
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        builder = ATTACKS["naive"].build_builder(
            protocol.primary_feature, population.config.bin_width
        )
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = HomogeneousPolicy(PercentileHeuristic(99.0)).assign(
            training, fusion=protocol.fusion
        )
        for week in (1, 2, 3):
            batched, reference = _measure_both(
                matrices, assignment, protocol, builder, week=week
            )
            assert batched == reference

    def test_equal_with_stale_attack_assignment(self, population):
        """A mimicry attacker evading stale thresholds (attack_assignment)."""
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        builder = ATTACKS["mimicry"].build_builder(
            protocol.primary_feature, population.config.bin_width
        )
        heuristic = PercentileHeuristic(99.0)
        stale = HomogeneousPolicy(heuristic).assign(
            detection_training_distributions(matrices, protocol.features, 0),
            fusion=protocol.fusion,
        )
        fresh = FullDiversityPolicy(heuristic).assign(
            detection_training_distributions(matrices, protocol.features, 2),
            fusion=protocol.fusion,
        )
        batched, reference = _measure_both(
            matrices, fresh, protocol, builder, week=3, attack_assignment=stale
        )
        assert batched == reference

    @pytest.mark.parametrize("active_fraction", [1.0, 0.6])
    def test_equal_with_naive_attacker_builder(self, population, active_fraction):
        """NaiveAttacker.builder's batch form injects what its per-host form does."""
        protocol = PROTOCOLS["single"]
        matrices = population.matrices()
        builder = NaiveAttacker(
            feature=protocol.primary_feature, attack_size=20.0, active_fraction=active_fraction
        ).builder(lambda host_id: np.random.default_rng((5, host_id)))
        assert callable(builder.batch)
        training = detection_training_distributions(
            matrices, protocol.features, protocol.train_week
        )
        assignment = PartialDiversityPolicy(PercentileHeuristic(99.0), num_groups=4).assign(
            training, fusion=protocol.fusion
        )
        batched, reference = _measure_both(matrices, assignment, protocol, builder)
        assert batched == reference

    def test_irregular_grid_falls_back_to_per_host_loop(self, population):
        """Mixed bin counts route through the reference loop unchanged."""
        matrices = dict(population.matrices())
        host_ids = list(matrices)
        # Truncate one host's matrix to one week: the grid is no longer
        # uniform and measure_assignment must use the per-host path.
        clipped = matrices[host_ids[0]].slice_time(0.0, 2 * 7 * 24 * 3600.0)
        irregular = dict(matrices)
        irregular[host_ids[0]] = clipped
        protocol = PROTOCOLS["single"]
        training = detection_training_distributions(
            irregular, protocol.features, protocol.train_week
        )
        assignment = FullDiversityPolicy(PercentileHeuristic(99.0)).assign(
            training, fusion=protocol.fusion
        )
        performances = measure_assignment(irregular, assignment, protocol)
        reference = _measure_assignment_per_host(
            irregular, assignment, protocol.features, protocol.fusion, None,
            protocol.test_week, None,
        )
        assert performances == reference

    def test_batch_attribute_survives_builder_adaptation(self):
        """A two-argument builder's vectorised form is kept by the adapter."""

        def builder(host_id, matrix):
            return None

        builder.batch = lambda batch: None
        adapted = _adapt_attack_builder(builder)
        assert getattr(adapted, "batch", None) is builder.batch
