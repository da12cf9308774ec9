#!/usr/bin/env python
"""How many configuration groups does an IT department actually need?

Sweeps the number of partial-diversity groups (2, 4, 6, 8, 16) and reports,
for each setting, the mean per-host utility and the alarms arriving at the IT
console, bracketed by the monoculture (1 group) and full diversity (one group
per host).  The paper's finding: around 8 groups captures most of the benefit
of full diversity, so IT keeps a manageable number of configurations.

Generation goes through the population engine: ``--workers`` fans hosts out
across processes (bit-identical to serial) and ``--cache-dir`` reuses
generated populations across runs.

Usage::

    python examples/partial_diversity_tuning.py [--hosts 80]
        [--workers N] [--cache-dir DIR] [--no-cache]
"""

from __future__ import annotations

import argparse

from repro import Feature, quick_population
from repro.attacks.naive import NaiveAttacker
from repro.core.evaluation import DetectionProtocol, evaluate_policy
from repro.core.policies import FullDiversityPolicy, HomogeneousPolicy, PartialDiversityPolicy
from repro.engine import PopulationEngine
from repro.experiments.report import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=80, help="number of end hosts")
    parser.add_argument("--seed", type=int, default=21, help="workload generation seed")
    parser.add_argument("--attack-size", type=float, default=80.0, help="injected connections per window")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for generation (default: auto; 1 forces serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="population cache directory (default: $REPRO_CACHE_DIR when set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk population cache"
    )
    args = parser.parse_args()

    engine = PopulationEngine.from_flags(
        workers=args.workers, cache_dir=args.cache_dir, no_cache=args.no_cache
    )
    feature = Feature.TCP_CONNECTIONS
    population = quick_population(
        num_hosts=args.hosts, num_weeks=2, seed=args.seed, engine=engine
    )
    matrices = population.matrices()
    protocol = DetectionProtocol(features=(feature,))
    attack_builder = NaiveAttacker(feature=feature, attack_size=args.attack_size).builder()

    policies = [("1 (monoculture)", HomogeneousPolicy())]
    policies += [(str(groups), PartialDiversityPolicy(num_groups=groups)) for groups in (2, 4, 6, 8, 16)]
    policies += [(f"{args.hosts} (full diversity)", FullDiversityPolicy())]

    rows = []
    for label, policy in policies:
        evaluation = evaluate_policy(matrices, policy, protocol, attack_builder=attack_builder)
        rows.append(
            [
                label,
                round(evaluation.mean_utility(), 4),
                evaluation.total_false_alarms(),
                round(evaluation.fraction_raising_alarm(), 3),
            ]
        )

    print(
        render_table(
            ["groups", "mean utility", "false alarms/week", "detects attack"],
            rows,
            title=f"Partial-diversity group-count sweep ({args.hosts} hosts, {feature.value})",
        )
    )
    print("\nA handful of groups recovers most of full diversity's detection benefit.")


if __name__ == "__main__":
    main()
