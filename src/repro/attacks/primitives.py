"""Malicious traffic primitives: scanning, DDoS flooding, spam campaigns.

These models describe what a recruited zombie actually does on the wire.  Each
primitive produces per-bin additive feature counts; the Storm zombie model
composes several primitives, and they can also be used standalone to build
custom attack scenarios in examples and extension experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.features.definitions import Feature
from repro.utils.validation import require, require_non_negative, require_positive, require_probability


@dataclass(frozen=True)
class PortScanModel:
    """Horizontal port/address scan: many SYNs to many distinct destinations.

    Attributes
    ----------
    targets_per_bin:
        Mean number of distinct addresses probed per active bin.
    probes_per_target:
        SYN probes sent to each address (retries on closed ports).
    activity_probability:
        Probability that any given bin contains scan activity.
    """

    targets_per_bin: float = 200.0
    probes_per_target: float = 1.5
    activity_probability: float = 0.3

    def __post_init__(self) -> None:
        require_positive(self.targets_per_bin, "targets_per_bin")
        require_positive(self.probes_per_target, "probes_per_target")
        require_probability(self.activity_probability, "activity_probability")

    def per_bin_counts(self, num_bins: int, rng: np.random.Generator) -> Dict[Feature, np.ndarray]:
        """Per-bin additive feature counts produced by the scan."""
        require(num_bins >= 1, "num_bins must be >= 1")
        active = rng.uniform(size=num_bins) < self.activity_probability
        targets = np.where(active, rng.poisson(self.targets_per_bin, size=num_bins), 0).astype(float)
        syns = targets * self.probes_per_target
        return {
            Feature.TCP_CONNECTIONS: targets,
            Feature.TCP_SYN: syns,
            Feature.DISTINCT_CONNECTIONS: targets,
        }


@dataclass(frozen=True)
class SpamCampaignModel:
    """Outbound spam: SMTP connections to many mail exchangers plus DNS MX lookups.

    Attributes
    ----------
    messages_per_bin:
        Mean spam messages sent per active bin (one SMTP connection each).
    distinct_mx_fraction:
        Fraction of messages that go to a previously-unseen mail exchanger
        within the bin (drives the distinct-destinations feature).
    lookups_per_message:
        DNS lookups (MX + A records) per message.
    activity_probability:
        Probability that any given bin carries spam.
    """

    messages_per_bin: float = 300.0
    distinct_mx_fraction: float = 0.4
    lookups_per_message: float = 1.2
    activity_probability: float = 0.5

    def __post_init__(self) -> None:
        require_positive(self.messages_per_bin, "messages_per_bin")
        require_probability(self.distinct_mx_fraction, "distinct_mx_fraction")
        require_non_negative(self.lookups_per_message, "lookups_per_message")
        require_probability(self.activity_probability, "activity_probability")

    def per_bin_counts(self, num_bins: int, rng: np.random.Generator) -> Dict[Feature, np.ndarray]:
        """Per-bin additive feature counts produced by the spam campaign."""
        require(num_bins >= 1, "num_bins must be >= 1")
        active = rng.uniform(size=num_bins) < self.activity_probability
        messages = np.where(active, rng.poisson(self.messages_per_bin, size=num_bins), 0).astype(float)
        return {
            Feature.TCP_CONNECTIONS: messages,
            Feature.TCP_SYN: messages * 1.1,
            Feature.DISTINCT_CONNECTIONS: messages * self.distinct_mx_fraction,
            Feature.DNS_CONNECTIONS: messages * self.lookups_per_message,
        }
