"""Micro-benchmarks of feature-set evaluation: the cost of K features.

Multi-feature detection runs one threshold grid + detector pass per feature
plus the per-bin fusion, so evaluation cost should scale roughly linearly in
the feature-set size.  These entries track that cost at the 350-host
benchmark scale so later PRs can't silently regress the K-feature path.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import DetectionProtocol, evaluate_policy
from repro.core.fusion import FusionRule
from repro.core.policies import FullDiversityPolicy
from repro.features.definitions import PAPER_FEATURES, Feature


def _attack_builder(size: float = 80.0):
    return NaiveAttacker(feature=Feature.TCP_CONNECTIONS, attack_size=size).builder()


@pytest.mark.parametrize("num_features", [1, 3, 6])
def test_bench_fusion_k_feature_evaluation(benchmark, bench_population, num_features):
    """Full-diversity evaluation over the first K paper features (any fusion)."""
    matrices = bench_population.matrices()
    protocol = DetectionProtocol(
        features=PAPER_FEATURES[:num_features], fusion=FusionRule.any_()
    )
    evaluation = run_once(
        benchmark,
        evaluate_policy,
        matrices,
        FullDiversityPolicy(),
        protocol,
        attack_builder=_attack_builder(),
    )
    assert len(evaluation.performances) == len(matrices)
    assert all(
        len(perf.feature_operating_points) == num_features
        for perf in evaluation.performances.values()
    )
    benchmark.extra_info["num_features"] = num_features


def test_bench_fusion_rule_overhead(benchmark, bench_population):
    """k_of_n fusion over all six features: the fusion rule itself is cheap —
    the time here should track the 6-feature any-fusion entry closely."""
    matrices = bench_population.matrices()
    protocol = DetectionProtocol(features=PAPER_FEATURES, fusion=FusionRule.k_of_n(2))
    evaluation = run_once(
        benchmark,
        evaluate_policy,
        matrices,
        FullDiversityPolicy(),
        protocol,
        attack_builder=_attack_builder(),
    )
    assert len(evaluation.performances) == len(matrices)
    benchmark.extra_info["fusion"] = "2-of-n"
