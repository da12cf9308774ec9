"""Resourceful (mimicry) attacker.

The strongest attacker in the paper has planted monitoring code on the
victim, so it knows the empirical distribution ``P(g)`` of the feature it will
abuse and can estimate the detection threshold ``T`` in force on that host.
Being cautious, it picks the *largest* injection ``b`` such that

    P(g + b < T)  >=  evasion_probability      (0.9 in the paper)

i.e. it sacrifices volume to stay hidden.  The quantity ``b`` is the "hidden
traffic" plotted in Figure 4(b): how much malicious traffic each host can be
made to emit without its HIDS noticing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.attacks.base import Attack, AttackBuilder, AttackTrace, FeatureInjection, VictimBatch
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.validation import require, require_probability


@dataclass(frozen=True)
class MimicryPlan:
    """The attacker's per-host plan: injected volume and expected evasion."""

    host_id: int
    feature: Feature
    threshold: float
    hidden_traffic: float
    expected_evasion: float

    def __post_init__(self) -> None:
        require(self.hidden_traffic >= 0, "hidden_traffic must be non-negative")
        require_probability(self.expected_evasion, "expected_evasion")


@dataclass(frozen=True)
class MimicryAttacker(Attack):
    """Inject the largest volume that evades detection with a target probability.

    Attributes
    ----------
    feature:
        The abused feature.
    threshold:
        The detection threshold the attacker believes is in force on this
        host (under a homogeneous policy this is the global threshold; under
        diversity it is the host's own threshold).
    evasion_probability:
        The probability of remaining undetected the attacker insists on
        (0.9 in the paper's experiment).
    profile_distribution:
        The attacker's estimate of the host's benign feature distribution.
        When None, the attacker profiles the victim from the matrix passed to
        :meth:`build` (perfect knowledge).
    """

    feature: Feature
    threshold: float
    evasion_probability: float = 0.9
    profile_distribution: EmpiricalDistribution = None

    def __post_init__(self) -> None:
        require_probability(self.evasion_probability, "evasion_probability")

    @property
    def name(self) -> str:
        return f"mimicry-{self.feature.value}-p{self.evasion_probability:g}"

    def plan(self, victim: FeatureMatrix) -> MimicryPlan:
        """Compute the attacker's plan against ``victim`` without building the trace."""
        distribution = (
            self.profile_distribution
            if self.profile_distribution is not None
            else victim.series(self.feature).distribution()
        )
        hidden = distribution.largest_hidden_shift(self.threshold, self.evasion_probability)
        # Expected evasion given the chosen injection (recomputed, because the
        # empirical quantile is a step function).
        evasion = 1.0 - distribution.shifted_exceedance(self.threshold, hidden) if hidden > 0 else 1.0
        return MimicryPlan(
            host_id=victim.host_id,
            feature=self.feature,
            threshold=self.threshold,
            hidden_traffic=hidden,
            expected_evasion=float(np.clip(evasion, 0.0, 1.0)),
        )

    def build(self, victim: FeatureMatrix, rng: np.random.Generator) -> AttackTrace:
        plan = self.plan(victim)
        amounts = np.full(victim.num_bins, plan.hidden_traffic)
        injection = FeatureInjection(feature=self.feature, amounts=amounts)
        return AttackTrace(
            name=self.name,
            injections={self.feature: injection},
            bin_spec=victim.series(self.feature).bin_spec,
        )


def batch_hidden_traffic(
    values: np.ndarray,
    thresholds: np.ndarray,
    evasion_probability: float = 0.9,
) -> np.ndarray:
    """Largest hidden per-bin injection per host, over stacked benign values.

    The vectorised form of
    :meth:`~repro.stats.empirical.EmpiricalDistribution.largest_hidden_shift`:
    ``values`` is a ``(num_hosts, num_bins)`` stack of each victim's benign
    series, ``thresholds`` the ``(num_hosts,)`` thresholds in force, or a
    ``(num_assignments, num_hosts)`` stack of several assignments' thresholds
    scored against one percentile per host (the result then has that shape
    too).  Host ``i`` is bit-identical to the per-host computation —
    ``np.percentile`` along ``axis=1`` applies the same order statistics and
    interpolation per row as the scalar call does on one host's samples.
    """
    require_probability(evasion_probability, "evasion_probability")
    stacked = np.asarray(values, dtype=float)
    require(stacked.ndim == 2, "values must be a (num_hosts, num_bins) stack")
    quantiles = np.percentile(stacked, 100.0 * evasion_probability, axis=1)
    return np.maximum(0.0, np.asarray(thresholds, dtype=float) - quantiles)


def mimicry_builder(
    feature: Feature, evasion_probability: float = 0.9, tracks_schedule: bool = False
) -> AttackBuilder:
    """The resourceful attacker as an attack builder.

    On every victim it injects, in every bin of ``feature``, the largest
    volume that evades the threshold handed to it with
    ``evasion_probability`` (:func:`batch_hidden_traffic` over the victims'
    test week).  ``tracks_schedule`` marks an attacker that re-profiles
    whatever thresholds a timeline has in force (see
    :func:`repro.temporal.evaluate_timeline`).
    """

    def build(batch: VictimBatch) -> Dict[Feature, np.ndarray]:
        hidden = batch_hidden_traffic(
            batch.values(feature), batch.thresholds[feature], evasion_probability
        )
        return {feature: np.repeat(hidden[:, None], batch.num_bins, axis=1)}

    build.tracks_schedule = tracks_schedule
    return build


def hidden_traffic_by_host(
    matrices: Mapping[int, FeatureMatrix],
    thresholds: Mapping[int, float],
    feature: Feature,
    evasion_probability: float = 0.9,
) -> Dict[int, float]:
    """Hidden traffic volume per host for a given per-host threshold assignment.

    This is the quantity summarised by the Figure 4(b) boxplots: for each
    host, the largest per-bin injection a mimicry attacker can sustain while
    evading detection with ``evasion_probability``.  Populations whose hosts
    share a bin grid are scored as one stacked percentile computation
    (bit-identical to the per-host loop, which remains the fallback for
    irregular matrices).
    """
    host_ids = list(matrices)
    lengths = {matrices[host_id].num_bins for host_id in host_ids}
    if len(lengths) == 1:
        stacked = np.stack(
            [np.asarray(matrices[host_id].series(feature).values) for host_id in host_ids]
        )
        threshold_vector = np.array([float(thresholds[host_id]) for host_id in host_ids])
        hidden = batch_hidden_traffic(stacked, threshold_vector, evasion_probability)
        return {host_id: float(value) for host_id, value in zip(host_ids, hidden)}
    results: Dict[int, float] = {}
    for host_id, matrix in matrices.items():
        attacker = MimicryAttacker(
            feature=feature,
            threshold=float(thresholds[host_id]),
            evasion_probability=evasion_probability,
        )
        results[host_id] = attacker.plan(matrix).hidden_traffic
    return results
