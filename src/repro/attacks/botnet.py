"""Botnet recruitment and campaign model.

The paper assumes every enterprise host can potentially be recruited into a
botnet and used to stage DDoS, spam or scanning campaigns.
:func:`botnet_builder` models the botmaster's view: which hosts are
compromised, the command-and-control channel used to task them, and the same
campaign order sent to every zombie.  A resourceful campaign, each zombie
sized by the mimicry attacker to stay under its local threshold, is
:class:`~repro.attacks.mimicry.MimicryAttacker` on every host.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict

import numpy as np

from repro.attacks.base import AttackBuilder, VictimBatch
from repro.features.definitions import Feature


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
