"""Synthetic Storm botnet zombie.

The paper's real-attack evaluation (Figure 5) replays a week-long trace of a
live Storm zombie over every user's benign trace and measures detection using
the number-of-distinct-connections feature.  Storm's on-the-wire behaviour is
well documented: constant Overnet/Kademlia-style UDP chatter to thousands of
distinct peers, periodic spam bursts over SMTP, and occasional TCP scanning
for propagation.  :class:`StormZombieModel` composes the corresponding
primitives into a week of per-bin additive counts with the distinct-
destination feature dominating — the footprint Figure 5 depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.attacks.base import AttackBuilder, VictimBatch
from repro.attacks.primitives import PortScanModel, SpamCampaignModel
from repro.features.definitions import Feature
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class StormZombieModel:
    """Behavioural model of one Storm zombie.

    Attributes
    ----------
    p2p_peers_per_bin:
        Mean number of distinct Overnet peers contacted per bin (UDP) while
        the overlay is merely keeping itself alive.  This low-level chatter
        is present in most bins and is what light users' personal thresholds
        catch.
    p2p_duty_cycle:
        Fraction of bins during which the overlay is active (zombies go
        quiet when the laptop sleeps; the replayed trace keeps the host up).
    spam:
        The spam-campaign component — the large bursts (hundreds of distinct
        mail exchangers) that even a pooled enterprise-wide threshold can
        see about half the time.
    scan:
        The propagation-scan component (occasional very large fan-out).
    """

    p2p_peers_per_bin: float = 35.0
    p2p_duty_cycle: float = 0.92
    spam: SpamCampaignModel = SpamCampaignModel(
        messages_per_bin=900.0, distinct_mx_fraction=0.7, activity_probability=0.45
    )
    scan: PortScanModel = PortScanModel(
        targets_per_bin=2200.0, probes_per_target=1.3, activity_probability=0.10
    )

    def __post_init__(self) -> None:
        require_positive(self.p2p_peers_per_bin, "p2p_peers_per_bin")
        require(0.0 < self.p2p_duty_cycle <= 1.0, "p2p_duty_cycle must be in (0, 1]")

    def per_bin_counts(self, num_bins: int, rng: np.random.Generator) -> Dict[Feature, np.ndarray]:
        """Additive per-bin counts of a zombie running for ``num_bins`` bins."""
        require(num_bins >= 1, "num_bins must be >= 1")
        counts: Dict[Feature, np.ndarray] = {
            feature: np.zeros(num_bins) for feature in Feature
        }

        # P2P overlay chatter: UDP flows to many distinct peers.
        overlay_active = rng.uniform(size=num_bins) < self.p2p_duty_cycle
        peers = np.where(
            overlay_active, rng.poisson(self.p2p_peers_per_bin, size=num_bins), 0
        ).astype(float)
        counts[Feature.UDP_CONNECTIONS] += peers
        counts[Feature.DISTINCT_CONNECTIONS] += peers

        for component in (self.spam, self.scan):
            for feature, values in component.per_bin_counts(num_bins, rng).items():
                counts[feature] += values

        return {feature: values for feature, values in counts.items() if np.any(values > 0)}


def generate_storm_trace(
    duration: float = WEEK,
    bin_width: float = 15 * MINUTE,
    seed: int = 1701,
    model: Optional[StormZombieModel] = None,
) -> Dict[Feature, np.ndarray]:
    """Generate the week-long Storm zombie attack trace used by Figure 5.

    Returns the zombie's per-bin counts of every feature it touches, over
    ``duration`` in bins of ``bin_width``.  The same trace (same seed) is
    overlaid on every user, matching the paper's methodology of replaying
    one collected zombie trace across the population.
    """
    require_positive(duration, "duration")
    require_positive(bin_width, "bin_width")
    model = model if model is not None else StormZombieModel()
    num_bins = max(BinSpec(width=bin_width).count_until(duration), 1)
    return model.per_bin_counts(num_bins, np.random.default_rng(seed))


def _pad_attack_amounts(amounts: np.ndarray, num_bins: int) -> np.ndarray:
    """Pad or truncate a one-host amounts vector to ``num_bins`` bins.

    Only the overlapping prefix of the attack trace is injected (the paper
    overlays a one-week zombie trace onto each one-week test window); missing
    bins carry zero.
    """
    amounts = np.asarray(amounts, dtype=float)
    padded = np.zeros(int(num_bins))
    usable = min(int(num_bins), amounts.size)
    padded[:usable] = amounts[:usable]
    return padded


def storm_builder(seed: int = 1701, model: Optional[StormZombieModel] = None) -> AttackBuilder:
    """An attack builder replaying the week-long Storm trace over every victim's test week.

    Each call generates the trace (:func:`generate_storm_trace` with ``seed``
    and ``model``) in the batch's own bins, so it always matches the victims'
    binning.  Each victim receives the trace's overlapping prefix, and bins
    past the trace's end carry zero.
    """

    def build(batch: VictimBatch) -> Dict[Feature, np.ndarray]:
        trace = generate_storm_trace(WEEK, batch.bin_spec.width, seed, model)
        return {
            feature: np.tile(_pad_attack_amounts(amounts, batch.num_bins), (batch.num_hosts, 1))
            for feature, amounts in trace.items()
        }

    return build
