"""Botnet recruitment and campaign model.

The paper assumes every enterprise host can potentially be recruited into a
botnet and used to stage DDoS, spam or scanning campaigns.  :class:`Botnet`
models the botmaster's view: which hosts are compromised, the command-and-
control channel used to task them, and campaign construction — either naive
(same order to every zombie) or resourceful (per-zombie orders sized by the
mimicry attacker so each zombie stays under its local threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.attacks.base import AttackBuilder, AttackTrace, VictimBatch
from repro.attacks.mimicry import MimicryAttacker
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix
from repro.utils.rng import RandomSource
from repro.utils.validation import require, require_probability


class CommandAndControl(Enum):
    """C&C channel flavours (affects which feature the control traffic shows up in)."""

    IRC = "irc"
    HTTP = "http"
    P2P = "p2p"

    @property
    def control_feature(self) -> Feature:
        """The feature the control channel itself perturbs."""
        if self == CommandAndControl.HTTP:
            return Feature.HTTP_CONNECTIONS
        if self == CommandAndControl.P2P:
            return Feature.UDP_CONNECTIONS
        return Feature.TCP_CONNECTIONS


@dataclass(frozen=True)
class BotnetCampaign:
    """The outcome of a tasked campaign across all recruited zombies."""

    feature: Feature
    per_host_traces: Mapping[int, AttackTrace]

    def total_volume(self) -> float:
        """Total injected volume across all zombies and bins (attack strength)."""
        return float(
            sum(trace.injection(self.feature).total for trace in self.per_host_traces.values())
        )

    def per_bin_volume(self) -> np.ndarray:
        """Aggregate injected volume per bin across the botnet (DDoS strength profile)."""
        lengths = [trace.num_bins for trace in self.per_host_traces.values()]
        require(len(lengths) > 0, "campaign has no participating hosts")
        total = np.zeros(max(lengths))
        for trace in self.per_host_traces.values():
            amounts = trace.amounts(self.feature)
            total[: amounts.size] += amounts
        return total


@dataclass
class Botnet:
    """A botmaster controlling a subset of the enterprise population.

    Attributes
    ----------
    compromise_probability:
        Probability that any given host is recruited.
    command_and_control:
        The C&C channel flavour.
    seed:
        Seed for recruitment and campaign randomness.
    """

    compromise_probability: float = 1.0
    command_and_control: CommandAndControl = CommandAndControl.P2P
    seed: int = 99

    def __post_init__(self) -> None:
        require_probability(self.compromise_probability, "compromise_probability")

    def recruit(self, host_ids: Sequence[int]) -> List[int]:
        """Decide which hosts the botmaster controls."""
        rng = RandomSource(self.seed, "botnet").child("recruit").generator
        return [
            host_id
            for host_id in host_ids
            if rng.uniform() < self.compromise_probability
        ]

    def resourceful_campaign(
        self,
        matrices: Mapping[int, FeatureMatrix],
        thresholds: Mapping[int, float],
        feature: Feature,
        evasion_probability: float = 0.9,
    ) -> BotnetCampaign:
        """Task each zombie with the largest injection that evades its local threshold.

        This is the paper's resourceful-attacker scenario lifted from a single
        host to the whole botnet: the aggregate campaign volume
        (:meth:`BotnetCampaign.total_volume`) is the attack strength the
        defender's policy choice bounds.
        """
        recruited = self.recruit(sorted(matrices))
        rng_source = RandomSource(self.seed, "botnet")
        traces: Dict[int, AttackTrace] = {}
        for host_id in recruited:
            attacker = MimicryAttacker(
                feature=feature,
                threshold=float(thresholds[host_id]),
                evasion_probability=evasion_probability,
            )
            traces[host_id] = attacker.build(
                matrices[host_id], rng_source.child("mimicry", host_id).generator
            )
        return BotnetCampaign(feature=feature, per_host_traces=traces)


def botnet_builder(
    feature: Feature,
    size: float,
    rng_for: Callable[[int], np.random.Generator],
    compromise_probability: float = 1.0,
    active_fraction: float = 1.0,
    command_and_control: CommandAndControl = CommandAndControl.P2P,
    control_size: float = 0.0,
) -> AttackBuilder:
    """A botnet campaign over a victim batch, as an attack builder.

    Each host draws from its own generator ``rng_for(host_id)``: first
    whether it is recruited (with ``compromise_probability``), then, for an
    intermittent campaign, which bins are active (``active_fraction``).  A
    recruited host injects ``size`` per active bin into ``feature`` and
    ``control_size`` per bin of command-and-control traffic into the
    channel's feature, unless that is ``feature`` itself.
    """
    control_feature = command_and_control.control_feature
    with_control = control_feature != feature and control_size > 0.0

    def build(batch: VictimBatch) -> Dict[Feature, np.ndarray]:
        num_bins = batch.num_bins
        campaign = np.zeros((batch.num_hosts, num_bins))
        control = np.zeros((batch.num_hosts, num_bins)) if with_control else None
        for index, host_id in enumerate(batch.host_ids):
            rng = rng_for(host_id)
            if rng.uniform() >= compromise_probability:
                continue
            amounts = np.full(num_bins, float(size))
            if active_fraction < 1.0:
                active = rng.uniform(size=num_bins) < active_fraction
                amounts = np.where(active, amounts, 0.0)
            campaign[index] = amounts
            if control is not None:
                control[index] = float(control_size)
        result = {feature: campaign}
        if control is not None:
            result[control_feature] = control
        return result

    return build
