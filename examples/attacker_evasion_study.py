#!/usr/bin/env python
"""Attacker's-eye view: how much traffic can a botnet hide under each policy?

Builds the enterprise population, recruits every host into a botnet, and
compares three campaigns:

* a naive DDoS campaign at a fixed per-zombie rate (who gets caught?);
* a resourceful (mimicry) campaign where each zombie injects the most it can
  while evading its local detector with 90% probability — the aggregate
  volume is the DDoS strength the policy failed to prevent;
* the same resourceful campaign against each policy's thresholds, showing how
  diversity shrinks the attacker's total budget.

Generation goes through the population engine: ``--workers`` fans hosts out
across processes (bit-identical to serial) and ``--cache-dir`` reuses
generated populations across runs.

Usage::

    python examples/attacker_evasion_study.py [--hosts 80]
        [--workers N] [--cache-dir DIR] [--no-cache]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import Feature, quick_population
from repro.attacks.mimicry import hidden_traffic_by_host
from repro.core.evaluation import training_distributions
from repro.core.policies import FullDiversityPolicy, HomogeneousPolicy, PartialDiversityPolicy
from repro.engine import PopulationEngine
from repro.experiments.report import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=80, help="number of end hosts")
    parser.add_argument("--seed", type=int, default=11, help="workload generation seed")
    parser.add_argument("--evasion", type=float, default=0.9, help="attacker's target evasion probability")
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
    matrices = {host: matrix.week(1) for host, matrix in population.matrices().items()}
    train = training_distributions(population.matrices(), feature, week=0)
    num_bins = next(iter(matrices.values())).num_bins

    policies = [HomogeneousPolicy(), FullDiversityPolicy(), PartialDiversityPolicy()]

    rows = []
    for policy in policies:
        assignment = policy.compute_thresholds(train)
        # Every host is recruited and injects its hidden traffic in every bin.
        hidden = hidden_traffic_by_host(
            matrices, assignment.thresholds, feature, evasion_probability=args.evasion
        )
        campaign = np.repeat(np.array(list(hidden.values()))[:, None], num_bins, axis=1)
        per_bin = campaign.sum(axis=0)
        rows.append(
            [
                policy.name,
                round(float(campaign.sum()) / 1e6, 3),
                round(float(per_bin.mean()), 1),
                round(float(per_bin.max()), 1),
            ]
        )

    print(
        render_table(
            ["policy", "hidden volume (M conn/week)", "mean conn/bin", "peak conn/bin"],
            rows,
            title=(
                f"Resourceful botnet campaign against {args.hosts} hosts "
                f"(evasion probability {args.evasion:g}, feature {feature.value})"
            ),
        )
    )
    print(
        "\nDiversity policies shrink the total attack volume a careful botmaster can"
        "\nsend from inside the enterprise without tripping any host's detector."
    )


if __name__ == "__main__":
    main()
