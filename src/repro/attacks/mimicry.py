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

from repro.attacks.base import AttackBuilder, VictimBatch
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, population_block
from repro.stats.empirical import block_percentiles
from repro.utils.validation import require_probability


@dataclass(frozen=True)
class MimicryAttacker:
    """Inject the largest volume that evades detection with a target probability.

    The attacker learns the threshold in force on each victim from the
    :class:`~repro.attacks.base.VictimBatch` it attacks (under a homogeneous
    policy this is the global threshold; under diversity it is the host's
    own) and profiles the victim's test week with perfect knowledge.

    Attributes
    ----------
    feature:
        The abused feature.
    evasion_probability:
        The probability of remaining undetected the attacker insists on
        (0.9 in the paper's experiment).
    tracks_schedule:
        Whether the attacker re-profiles whatever thresholds a timeline has
        in force (see :func:`repro.temporal.evaluate_timeline`).
    """

    feature: Feature
    evasion_probability: float = 0.9
    tracks_schedule: bool = False

    def __post_init__(self) -> None:
        require_probability(self.evasion_probability, "evasion_probability")

    def builder(self) -> AttackBuilder:
        """This attack as an attack builder, carrying ``tracks_schedule``.

        On every victim it injects, in every bin of ``feature``, the largest
        volume that evades the threshold handed to it with
        ``evasion_probability`` (:func:`batch_hidden_traffic` over the
        victims' test week).
        """

        def build(batch: VictimBatch) -> Dict[Feature, np.ndarray]:
            hidden = batch_hidden_traffic(
                batch.values(self.feature),
                batch.thresholds[self.feature],
                self.evasion_probability,
            )
            return {self.feature: np.repeat(hidden[:, None], batch.num_bins, axis=1)}

        build.tracks_schedule = self.tracks_schedule
        return build


def batch_hidden_traffic(
    values: np.ndarray,
    thresholds: np.ndarray,
    evasion_probability: float = 0.9,
) -> np.ndarray:
    """Largest hidden per-bin injection per host, over stacked benign values.

    The largest ``b`` with ``P(g + b < T) >= evasion_probability`` is
    ``max(0, T - q)``, with ``q`` the host's ``100 * evasion_probability``-th
    percentile (0 when even ``b = 0`` misses the target).

    ``values`` is a ``(num_hosts, num_bins)`` stack of each victim's benign
    series, ``thresholds`` the ``(num_hosts,)`` thresholds in force, or a
    ``(num_assignments, num_hosts)`` stack of several assignments' thresholds
    scored against one percentile per host (the result then has that shape
    too).  Each host's percentile is read by index from one row-sorted copy
    of the stack (:func:`~repro.stats.empirical.block_percentiles`), so host
    ``i`` is bit-identical to ``np.percentile`` of its own samples.
    """
    require_probability(evasion_probability, "evasion_probability")
    quantiles = block_percentiles(values, 100.0 * evasion_probability)
    return np.maximum(0.0, np.asarray(thresholds, dtype=float) - quantiles)


def hidden_traffic_by_host(
    matrices: Mapping[int, FeatureMatrix],
    thresholds: Mapping[int, float],
    feature: Feature,
    evasion_probability: float = 0.9,
) -> Dict[int, float]:
    """Hidden traffic volume per host for a given per-host threshold assignment.

    This is the quantity summarised by the Figure 4(b) boxplots: for each
    host, the largest per-bin injection a mimicry attacker can sustain while
    evading detection with ``evasion_probability``, over every bin of its
    series.  The hosts share one bin grid, read as one block: one stacked
    percentile computation (:func:`batch_hidden_traffic`).
    """
    host_ids = list(matrices)
    threshold_vector = np.array([float(thresholds[host_id]) for host_id in host_ids])
    hidden = batch_hidden_traffic(
        population_block(matrices, feature), threshold_vector, evasion_probability
    )
    return dict(zip(host_ids, hidden.tolist()))
