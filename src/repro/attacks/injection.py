"""Overlaying attack traces onto benign feature series.

The paper evaluates policies by replaying or synthesising attack traffic and
*overlaying* it on real user traces (the additive model): the detector sees
``g + b`` while ground truth knows which bins carried attack traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.attacks.base import AttackTrace
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.utils.validation import require


@dataclass(frozen=True)
class InjectedSeries:
    """A benign series with attack traffic overlaid, plus ground truth.

    Attributes
    ----------
    observed:
        What the detector sees: benign + attack counts per bin.
    benign:
        The original benign series.
    attack_amounts:
        The injected amounts per bin (ground truth).
    """

    observed: TimeSeries
    benign: TimeSeries
    attack_amounts: np.ndarray

    @property
    def attack_mask(self) -> np.ndarray:
        """Boolean mask of bins that carry attack traffic."""
        return self.attack_amounts[: self.benign.num_bins] > 0

    @property
    def num_attack_bins(self) -> int:
        """Number of bins carrying attack traffic."""
        return int(np.count_nonzero(self.attack_mask))


def inject_attack(benign: TimeSeries, attack: AttackTrace, feature: Feature) -> InjectedSeries:
    """Overlay ``attack``'s injection for ``feature`` onto ``benign``.

    The attack trace may be shorter or longer than the benign series; only
    the overlapping prefix is injected (the paper overlays a one-week zombie
    trace onto each one-week test window).
    """
    require(
        abs(benign.bin_width - attack.bin_spec.width) < 1e-9,
        "attack and benign series must use the same bin width",
    )
    amounts = attack.amounts(feature)
    length = benign.num_bins
    padded = np.zeros(length)
    usable = min(length, amounts.size)
    padded[:usable] = amounts[:usable]
    observed = TimeSeries(np.asarray(benign.values) + padded, benign.bin_spec)
    return InjectedSeries(observed=observed, benign=benign, attack_amounts=padded)


def overlay_attack_matrix(matrix: FeatureMatrix, attack: AttackTrace) -> FeatureMatrix:
    """Return a copy of ``matrix`` with every attacked feature's series replaced."""
    updated = matrix
    for feature in attack.features:
        if feature not in matrix:
            continue
        injected = inject_attack(matrix.series(feature), attack, feature)
        updated = updated.with_series(feature, injected.observed)
    return updated


def pad_attack_amounts(amounts: np.ndarray, num_bins: int) -> np.ndarray:
    """Pad or truncate a one-host amounts vector to ``num_bins`` bins.

    Mirrors :func:`inject_attack`'s prefix-overlap rule: only the overlapping
    prefix of the attack trace is injected; missing bins carry zero.
    """
    amounts = np.asarray(amounts, dtype=float)
    padded = np.zeros(int(num_bins))
    usable = min(int(num_bins), amounts.size)
    padded[:usable] = amounts[:usable]
    return padded


def inject_population(
    matrices: Mapping[int, FeatureMatrix],
    attack: AttackTrace,
    feature: Feature,
) -> Dict[int, InjectedSeries]:
    """Overlay the same attack trace onto one feature of every host."""
    return {
        host_id: inject_attack(matrix.series(feature), attack, feature)
        for host_id, matrix in matrices.items()
    }
