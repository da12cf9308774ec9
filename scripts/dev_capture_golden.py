"""Capture the golden regression fixtures.

Dumps exact (repr-precision) outputs at small scale, so a faster rewrite can
be regression-tested bit for bit against the code it replaced:

``tests/data/golden_measurement.json``
    Per-host measurement outputs for a matrix of policies / protocols /
    attack kinds, the Figure 4(b) hidden-traffic ingredient and a full fig4
    run (the reference for the vectorised measurement path).
``tests/data/golden_figures.json``
    Figure 3 (boxplots, weight sweep and every host's thresholds and FP/FN in
    ``evaluations``) and Table 3 alarm counts (the reference for fig3's
    assign-once, measure-per-size evaluation).

Run it at the parent commit of the change being guarded, then copy the
fixtures into the change.  At any commit whose tests pass, every fixture
already equals the code's output, so rewriting all of them changes only the
ones that are new::

    PYTHONPATH=src python scripts/dev_capture_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.attacks.mimicry import hidden_traffic_by_host
from repro.core.evaluation import DetectionProtocol, evaluate_policy, training_distributions
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

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

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


def perf_payload(perf) -> dict:
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


def config_payload() -> dict:
    return {"num_hosts": CONFIG.num_hosts, "num_weeks": CONFIG.num_weeks, "seed": CONFIG.seed}


def capture_measurement() -> dict:
    population = generate_enterprise(CONFIG)
    matrices = population.matrices()
    heuristic = PercentileHeuristic(99.0)
    policies = {
        "homogeneous": HomogeneousPolicy(heuristic),
        "full-diversity": FullDiversityPolicy(heuristic),
        "partial": PartialDiversityPolicy(heuristic, num_groups=4),
    }

    golden: dict = {"config": config_payload(), "cases": {}}
    for proto_name, protocol in PROTOCOLS.items():
        for attack_name, attack in ATTACKS.items():
            builder = attack.build_builder(protocol.primary_feature, CONFIG.bin_width)
            for policy_name, policy in policies.items():
                evaluation = evaluate_policy(matrices, policy, protocol, attack_builder=builder)
                key = f"{proto_name}/{attack_name}/{policy_name}"
                golden["cases"][key] = {
                    str(host_id): perf_payload(perf)
                    for host_id, perf in sorted(evaluation.performances.items())
                }

    # Hidden traffic (Figure 4(b) ingredient) under the three policies.
    train = training_distributions(matrices, Feature.TCP_CONNECTIONS, 0)
    test_matrices = {host_id: m.week(1) for host_id, m in matrices.items()}
    hidden = {}
    for policy_name, policy in policies.items():
        assignment = policy.compute_thresholds(train)
        hidden[policy_name] = {
            str(host_id): repr(float(value))
            for host_id, value in sorted(
                hidden_traffic_by_host(
                    test_matrices, assignment.thresholds, Feature.TCP_CONNECTIONS
                ).items()
            )
        }
    golden["hidden_traffic"] = hidden

    # Full fig4 at small scale.
    fig4_population = generate_enterprise(EnterpriseConfig(num_hosts=16, num_weeks=2, seed=41))
    result = run_fig4(fig4_population, num_attack_sizes=6)
    golden["fig4"] = {
        "attack_sizes": [repr(float(s)) for s in result.attack_sizes],
        "detection_curves": {
            name: [repr(float(v)) for v in values]
            for name, values in result.detection_curves.items()
        },
        "hidden_traffic": {
            name: {str(h): repr(float(v)) for h, v in sorted(values.items())}
            for name, values in result.hidden_traffic.items()
        },
    }
    return golden


def fig3_payload(result) -> dict:
    return {
        "boxplots": {
            name: {key: repr(float(value)) for key, value in summary.to_dict().items()}
            for name, summary in result.boxplots.items()
        },
        "weights": [repr(float(w)) for w in result.weights],
        "weight_sweep": {
            name: [repr(float(v)) for v in values] for name, values in result.weight_sweep.items()
        },
        "evaluations": {
            name: {
                str(host_id): perf_payload(perf)
                for host_id, perf in sorted(evaluation.performances.items())
            }
            for name, evaluation in result.evaluations.items()
        },
    }


def table3_payload(result) -> dict:
    return {
        "alarms": {
            heuristic: {policy: repr(float(count)) for policy, count in row.items()}
            for heuristic, row in result.alarms.items()
        },
    }


def capture_figures() -> dict:
    population = generate_enterprise(CONFIG)
    return {
        "config": config_payload(),
        "fig3": fig3_payload(run_fig3(population)),
        "table3": table3_payload(run_table3(population)),
    }


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, golden in (
        ("golden_measurement.json", capture_measurement()),
        ("golden_figures.json", capture_figures()),
    ):
        path = DATA / name
        path.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")))
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
