#!/usr/bin/env python
"""Multi-feature detection with alarm fusion against a mimicry attacker.

The resourceful (mimicry) attacker sizes its injection to slip under the
TCP-connections threshold in force on each host, so the TCP detector alone
misses it by construction.  This example monitors a growing feature set
(TCP alone, +DNS, +DNS+UDP) under each fusion rule and prints the fused
false-positive rate, detection rate and utility per policy — the
defense-in-depth trade-off the `feature-fusion` packaged sweep explores at
campaign scale.

Usage::

    python examples/multi_feature_fusion.py [--hosts 60] [--seed 7]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import Feature, PolicyComparison, quick_population
from repro.attacks.mimicry import MimicryAttacker
from repro.core.experiment import ExperimentContext
from repro.core.fusion import FusionRule
from repro.experiments.report import render_table

FEATURE_SETS = (
    (Feature.TCP_CONNECTIONS,),
    (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS),
    (Feature.TCP_CONNECTIONS, Feature.DNS_CONNECTIONS, Feature.UDP_CONNECTIONS),
)

FUSION_RULES = (FusionRule.any_(), FusionRule.k_of_n(2), FusionRule.all_())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=60, help="number of end hosts to simulate")
    parser.add_argument("--seed", type=int, default=7, help="workload generation seed")
    parser.add_argument(
        "--evasion", type=float, default=0.9, help="mimicry attacker's target evasion probability"
    )
    args = parser.parse_args()

    print(f"Generating a {args.hosts}-host, 2-week enterprise population (seed {args.seed})...")
    population = quick_population(num_hosts=args.hosts, num_weeks=2, seed=args.seed)
    context = ExperimentContext(population)
    comparison = PolicyComparison(context)

    # The attacker knows the TCP threshold in force on each host and injects
    # the largest volume that evades it with --evasion probability.
    mimicry = MimicryAttacker(Feature.TCP_CONNECTIONS, args.evasion).builder()

    rows = []
    for features in FEATURE_SETS:
        for fusion in FUSION_RULES:
            protocol = context.detection_protocol(features, fusion=fusion)
            results = comparison.run(protocol, attack_builder=mimicry)
            for name, evaluation in results.items():
                mean_fp = float(
                    np.mean(list(evaluation.false_positive_rates().values()))
                )
                rows.append(
                    [
                        len(features),
                        fusion.name,
                        name,
                        round(mean_fp, 5),
                        round(evaluation.fraction_raising_alarm(), 3),
                        round(evaluation.mean_utility(), 4),
                    ]
                )

    print()
    print(
        render_table(
            ["features", "fusion", "policy", "fused FP", "detects attack", "mean utility"],
            rows,
            title=(
                f"Mimicry attack on {Feature.TCP_CONNECTIONS.value} "
                f"(evasion target {args.evasion:g})"
            ),
        )
    )
    print(
        "\nThe attacker evades the TCP threshold by construction; extra features"
        "\nunder any-fusion buy detection back at the price of more false alarms,"
        "\nwhile all-fusion suppresses false alarms but detects little."
    )


if __name__ == "__main__":
    main()
