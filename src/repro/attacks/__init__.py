"""Attack substrate.

The paper's threat model: a compromised end host is recruited into a botnet
and instructed to emit additional traffic, which *adds* to the features the
HIDS monitors.  Two attacker knowledge levels are studied — a naive attacker
injecting arbitrary amounts, and a resourceful (mimicry) attacker who has
profiled the host and injects the largest amount that still evades detection
with a target probability.  Figure 5 additionally replays a real Storm botnet
zombie trace; here a synthetic Storm zombie model provides the equivalent
footprint.

Every evaluation entry point takes an *attack builder*
(:data:`~repro.attacks.base.AttackBuilder`): a callable that receives a
:class:`~repro.attacks.base.VictimBatch` and returns each attacked feature's
``(num_hosts, num_bins)`` injected amounts.  This is the only form an
attack takes.  One factory builds each attack kind:
:meth:`NaiveAttacker.builder`, :meth:`MimicryAttacker.builder`,
:func:`storm_builder` and :func:`botnet_builder`.
"""

from repro.attacks.base import AttackBuilder, VictimBatch
from repro.attacks.naive import NaiveAttacker
from repro.attacks.mimicry import MimicryAttacker
from repro.attacks.primitives import (
    PortScanModel,
    SpamCampaignModel,
)
from repro.attacks.storm import StormZombieModel, generate_storm_trace, storm_builder
from repro.attacks.botnet import CommandAndControl, botnet_builder

__all__ = [
    "AttackBuilder",
    "VictimBatch",
    "NaiveAttacker",
    "MimicryAttacker",
    "PortScanModel",
    "SpamCampaignModel",
    "StormZombieModel",
    "generate_storm_trace",
    "storm_builder",
    "CommandAndControl",
    "botnet_builder",
]
