"""Naive attacker.

A naive botmaster does not know anything about the victim's traffic pattern:
it simply instructs the zombie to inject a chosen volume of extra traffic
(connections per window) on top of whatever the user is doing.  The paper
evaluates this attacker by sweeping the injected volume over the full range of
plausible sizes (Figure 4(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.attacks.base import AttackBuilder, VictimBatch
from repro.features.definitions import Feature
from repro.utils.validation import require, require_non_negative, require_probability


@dataclass(frozen=True)
class NaiveAttacker:
    """Inject a fixed volume per active bin into one feature.

    Attributes
    ----------
    feature:
        The feature whose counts the attack traffic adds to.
    attack_size:
        Extra connections (or SYNs, lookups, ...) injected per attacked bin.
    active_fraction:
        Fraction of bins during which the attack is active (1.0 = always on).
        The paper's synthetic sweeps use an always-on attack; lower values
        model intermittent campaigns.
    """

    feature: Feature
    attack_size: float
    active_fraction: float = 1.0

    def __post_init__(self) -> None:
        require_non_negative(self.attack_size, "attack_size")
        require_probability(self.active_fraction, "active_fraction")

    def batch_amounts(
        self, batch: VictimBatch, rng_for: Callable[[int], np.random.Generator]
    ) -> np.ndarray:
        """Per-host injected amounts for a whole victim batch.

        An always-on attack needs no randomness at all, while an intermittent
        campaign draws host ``h``'s activity mask, one uniform per bin, from
        its own generator ``rng_for(h)``, so a host is attacked alike in any
        batch.
        """
        base = float(self.attack_size)
        if self.active_fraction >= 1.0:
            return np.full((batch.num_hosts, batch.num_bins), base)
        rows = np.empty((batch.num_hosts, batch.num_bins))
        for index, host_id in enumerate(batch.host_ids):
            active = rng_for(host_id).uniform(size=batch.num_bins) < self.active_fraction
            rows[index] = np.where(active, base, 0.0)
        return rows

    def builder(
        self, rng_for: Callable[[int], np.random.Generator] = np.random.default_rng
    ) -> AttackBuilder:
        """This attack as an attack builder for the evaluation entry points.

        Host ``host_id`` is attacked with ``rng_for(host_id)``, through
        :meth:`batch_amounts`.
        """
        return lambda batch: {self.feature: self.batch_amounts(batch, rng_for)}


def attack_size_sweep(max_size: float, num_points: int = 50) -> np.ndarray:
    """Return the sweep of attack sizes used for Figure 4(a).

    The sweep is log-spaced from 1 connection/window up to ``max_size`` (the
    largest benign per-bin value observed across the population), because
    stealthy attacks in the 1-100 range are where the policies differ most.
    """
    require(max_size >= 1.0, "max_size must be >= 1")
    require(num_points >= 2, "num_points must be >= 2")
    return np.unique(np.round(np.logspace(0.0, np.log10(max_size), num_points)))
