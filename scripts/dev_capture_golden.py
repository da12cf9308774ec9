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
    assign-once, measure-per-size evaluation), Figure 5's per-host Storm
    scatter, the co-optimised Figure 3 (mean utilities, detection rates
    and objective values per optimizer and policy) and, under ``optimizers``,
    every host's jointly optimised thresholds, objective value and iteration
    count per policy, fusion rule and optimizer (coordinate ascent cold and
    warm-started, the exhaustive grid, the independent report's objective).
``tests/data/golden_population.json``
    The generator's bytes: per host, the SHA-256 of its six series'
    ``tobytes()`` in ``PAPER_FEATURES`` order and its profile, for 24-host
    populations under several configurations (defaults, no mobility, no
    maintenance, no week drift, composed drift models, explicit roles with
    desktops, a bin width that divides neither a day nor the rollout window),
    plus the environment lists ``generate_capture_session`` draws for laptops
    and a desktop.  The measurement fixtures read only what is measured; this
    one moves with any change to an unmeasured feature, a late week or a
    ``-0.0``.
``tests/data/golden_observability.json``
    The bytes the observability surfaces print, one list of lines per text:
    the fake-clock report and BENCH JSON of three load profiles, a SHA-256 of
    the ``demo`` plan, and, for one fake-clock synthetic run, the metrics
    record (``repro metrics show``), its OpenMetrics export, a metrics diff,
    the trace report (text and JSON) and the ``--monitor`` byte stream.  The
    builders live in ``tests/helpers.py``, which the test imports too.

Run it at the parent commit of the change being guarded, then copy the
fixtures into the change.  At any commit whose tests pass, every fixture
already equals the code's output, so rewriting all of them changes only the
ones that are new::

    PYTHONPATH=src python scripts/dev_capture_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.attacks.mimicry import hidden_traffic_by_host
from repro.core.evaluation import (
    DetectionProtocol,
    detection_training_distributions,
    evaluate_policy,
    training_distributions,
)
from repro.core.fusion import FusionRule
from repro.core.policies import (
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
)
from repro.core.thresholds import PercentileHeuristic, UtilityHeuristic
from repro.engine import PopulationEngine
from repro.engine.serialization import config_payload as full_config_payload
from repro.experiments.fig3_utility import run_fig3, run_fig3_cooptimized
from repro.experiments.fig4_attacker import run_fig4
from repro.experiments.fig5_storm import run_fig5
from repro.experiments.table3_alarms import run_table3
from repro.features.definitions import PAPER_FEATURES, Feature
from repro.optimize import CoordinateAscentOptimizer, GridJointOptimizer, IndependentOptimizer
from repro.sweeps.spec import AttackSpec
from repro.utils.rng import RandomSource
from repro.utils.timeutils import DAY, MINUTE
from repro.workload.drift import DriftModel
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise
from repro.workload.mobility import MobilityModel, generate_capture_session
from repro.workload.profiles import UserRole

TESTS = Path(__file__).resolve().parent.parent / "tests"
DATA = TESTS / "data"

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


def fig5_payload(result) -> dict:
    return {
        "scatter": {
            name: {
                str(host_id): [repr(float(fp)), repr(float(detection))]
                for host_id, (fp, detection) in sorted(points.items())
            }
            for name, points in result.scatter.items()
        },
    }


def fig3_cooptimized_payload(result) -> dict:
    return {
        name: {
            optimizer: {policy: repr(float(value)) for policy, value in row.items()}
            for optimizer, row in getattr(result, name).items()
        }
        for name in ("mean_utilities", "detection_rates", "objective_values")
    }


OPTIMIZER_FEATURES = (Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS, Feature.DNS_CONNECTIONS)

OPTIMIZER_FUSIONS = (FusionRule.any_(), FusionRule.k_of_n(2), FusionRule.all_())


def optimizer_policies(optimizer) -> dict:
    heuristic = UtilityHeuristic(weight=0.4)
    return {
        "homogeneous": HomogeneousPolicy(heuristic, optimizer=optimizer),
        "full-diversity": FullDiversityPolicy(heuristic, optimizer=optimizer),
        "partial": PartialDiversityPolicy(heuristic, num_groups=4, optimizer=optimizer),
    }


def assignment_payload(assignment) -> dict:
    report = assignment.optimization
    return {
        "thresholds": {
            feature.value: {
                str(host_id): repr(float(assignment.for_feature(feature).threshold_of(host_id)))
                for host_id in sorted(assignment.host_ids)
            }
            for feature in OPTIMIZER_FEATURES
        },
        "objective_value": repr(float(report.objective_value)),
        "iterations": int(report.iterations),
    }


def capture_optimizers(population) -> dict:
    matrices = population.matrices()
    week0 = detection_training_distributions(matrices, OPTIMIZER_FEATURES, week=0)
    week1 = detection_training_distributions(matrices, OPTIMIZER_FEATURES, week=1)
    ascent = optimizer_policies(CoordinateAscentOptimizer(weight=0.4))
    grid = optimizer_policies(GridJointOptimizer(weight=0.4, num_candidates=8))
    independent = optimizer_policies(IndependentOptimizer(weight=0.4))
    cases: dict = {}
    for fusion in OPTIMIZER_FUSIONS:
        for name, policy in ascent.items():
            cold = policy.assign(week0, fusion=fusion)
            scored = independent[name].assign(week0, fusion=fusion).optimization
            cases[f"{name}/{fusion.name}"] = {
                "coordinate-ascent": assignment_payload(cold),
                "coordinate-ascent-warm": assignment_payload(
                    policy.assign(week1, fusion=fusion, warm_start=cold)
                ),
                "grid-joint": assignment_payload(grid[name].assign(week0, fusion=fusion)),
                "independent": repr(float(scored.objective_value)),
            }
    dns = optimizer_policies(
        CoordinateAscentOptimizer(weight=0.4, attack_feature=Feature.DNS_CONNECTIONS)
    )["partial"]
    cases["partial/any/attack-dns"] = {
        "coordinate-ascent": assignment_payload(dns.assign(week0, fusion=FusionRule.any_())),
    }
    return cases


def capture_figures() -> dict:
    population = generate_enterprise(CONFIG)
    return {
        "config": config_payload(),
        "fig3": fig3_payload(run_fig3(population)),
        "table3": table3_payload(run_table3(population)),
        "fig5": fig5_payload(run_fig5(population)),
        "fig3_cooptimized": fig3_cooptimized_payload(run_fig3_cooptimized(population)),
        "optimizers": capture_optimizers(population),
    }


POPULATION_CONFIG = EnterpriseConfig(num_hosts=24, num_weeks=5, seed=77)

#: (config, roles) per generator fixture case.
POPULATION_CASES = {
    "defaults": (POPULATION_CONFIG, {}),
    "two-weeks": (EnterpriseConfig(num_hosts=24, num_weeks=2, seed=77), {}),
    "no-mobility": (EnterpriseConfig(num_hosts=24, num_weeks=5, seed=77, with_mobility=False), {}),
    "no-maintenance": (
        EnterpriseConfig(num_hosts=24, num_weeks=5, seed=77, with_maintenance=False),
        {},
    ),
    "no-week-drift": (
        EnterpriseConfig(num_hosts=24, num_weeks=5, seed=77, week_drift_scale=0.0),
        {},
    ),
    "drift-models": (
        EnterpriseConfig(
            num_hosts=24,
            num_weeks=5,
            seed=77,
            drift=DriftModel.from_kinds("seasonal+role-churn+flash-crowd"),
        ),
        {},
    ),
    "roles-and-desktops": (
        EnterpriseConfig(num_hosts=24, num_weeks=5, seed=77, laptop_fraction=0.5),
        {
            0: UserRole.SYSTEM_ADMINISTRATOR,
            1: UserRole.SYSTEM_ADMINISTRATOR,
            2: UserRole.SYSTEM_ADMINISTRATOR,
            3: UserRole.OFFICE_WORKER,
            4: UserRole.SALES_MOBILE,
            5: UserRole.POWER_USER,
        },
    ),
    "seven-minute-bins": (
        EnterpriseConfig(num_hosts=24, num_weeks=5, seed=77, bin_width=7 * MINUTE),
        {},
    ),
}

#: (host id, duration, mobility model) per capture-session fixture case.
CAPTURE_SESSION_CASES = {
    "laptop": (5, 9 * DAY, MobilityModel()),
    "laptop-travel-partial-day": (6, 8.6 * DAY, MobilityModel(travel_day_probability=0.4)),
    "desktop": (7, 9 * DAY, MobilityModel(is_laptop=False)),
}


def series_digest(matrix) -> str:
    """SHA-256 of the host's six series' bytes, in ``PAPER_FEATURES`` order."""
    digest = hashlib.sha256()
    for feature in PAPER_FEATURES:
        digest.update(matrix.series(feature).values.tobytes())
    return digest.hexdigest()


def profile_payload(profile) -> dict:
    return {
        "role": profile.role.value,
        "master_intensity": repr(float(profile.master_intensity)),
        "is_laptop": bool(profile.is_laptop),
        "intensities": {
            feature.value: [
                repr(float(intensity.scale)),
                repr(float(intensity.body_sigma)),
                repr(float(intensity.burst_probability)),
                repr(float(intensity.burst_alpha)),
            ]
            for feature, intensity in profile.intensities.items()
        },
    }


def environments_payload(session) -> list:
    return [
        [
            repr(float(env.start_time)),
            repr(float(env.end_time)),
            env.location.value,
            env.interface,
            env.host_ip,
        ]
        for env in session.environments
    ]


def capture_population() -> dict:
    engine = PopulationEngine(workers=1, use_cache=False)
    populations = {}
    for name, (config, roles) in POPULATION_CASES.items():
        population = generate_enterprise(config, roles=roles or None, engine=engine)
        populations[name] = {
            "config": full_config_payload(config),
            "roles": {str(host_id): role.value for host_id, role in sorted(roles.items())},
            "hosts": {
                str(host_id): {
                    "series_sha256": series_digest(population.matrix(host_id)),
                    "profile": profile_payload(population.profile(host_id)),
                }
                for host_id in population.host_ids
            },
        }
    random_source = RandomSource(seed=POPULATION_CONFIG.seed, label="enterprise")
    sessions = {}
    for name, (host_id, duration, model) in CAPTURE_SESSION_CASES.items():
        session = generate_capture_session(
            host_id, 0x0A000000 | host_id, duration, random_source, model
        )
        sessions[name] = {
            "host_id": host_id,
            "duration": repr(float(duration)),
            "model": {
                "is_laptop": model.is_laptop,
                "home_evening_probability": model.home_evening_probability,
                "weekend_home_probability": model.weekend_home_probability,
                "travel_day_probability": model.travel_day_probability,
                "wireless_probability": model.wireless_probability,
            },
            "environments": environments_payload(session),
        }
    return {"populations": populations, "capture_sessions": sessions}


def capture_observability() -> str:
    """The observability fixture, one JSON line per text line so diffs stay small."""
    sys.path.insert(0, str(TESTS))
    from helpers import observability_golden

    return json.dumps(observability_golden(), indent=1, sort_keys=True) + "\n"


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for name, golden in (
        ("golden_measurement.json", capture_measurement()),
        ("golden_figures.json", capture_figures()),
        ("golden_population.json", capture_population()),
    ):
        path = DATA / name
        path.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")))
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    path = DATA / "golden_observability.json"
    path.write_text(capture_observability())
    print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
