"""Definitions of the six traffic features from Table 1 of the paper.

Each feature counts, per time bin, connection records matching a predicate —
optionally counting *distinct* destination addresses rather than raw records.
All features are additive: attack traffic overlaid on benign traffic adds to
the per-bin count, which is the property the paper's attack model relies on.

========================  ======================  ==========================
Feature                   Anomaly targeted        Commercial example (paper)
========================  ======================  ==========================
num-DNS-connections       Botnet C&C              Damballa
num-TCP-connections       scans, DDoS             Cisco CSA
num-TCP-SYN               scans, DDoS             Bro, CSA
num-HTTP-connections      click fraud, DDoS       Bro, BlackIce
num-distinct-connections  scans                   Bro
num-UDP-connections       scans, DDoS             Cisco CSA
========================  ======================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Tuple

from repro.traces.flow import ConnectionRecord
from repro.traces.packet import IPProtocol
from repro.traces.protocols import is_dns, is_http


class Feature(Enum):
    """The six behavioural features studied in the paper."""

    DNS_CONNECTIONS = "num_dns_connections"
    TCP_CONNECTIONS = "num_tcp_connections"
    TCP_SYN = "num_tcp_syn"
    HTTP_CONNECTIONS = "num_http_connections"
    DISTINCT_CONNECTIONS = "num_distinct_connections"
    UDP_CONNECTIONS = "num_udp_connections"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FeatureDefinition:
    """How to compute one feature from connection records.

    Attributes
    ----------
    feature:
        The feature identity.
    description:
        Human-readable description for reports.
    anomaly:
        The anomaly class this feature is meant to surface (from Table 1).
    predicate:
        Returns True when a connection record contributes to the count.
    count_value:
        How much a matching record adds to the per-bin count (SYN counts add
        the record's SYN count; other features add one per record).
    distinct_destinations:
        If True, the per-bin value is the number of distinct destination IPs
        among matching records instead of a sum.
    """

    feature: Feature
    description: str
    anomaly: str
    predicate: Callable[[ConnectionRecord], bool]
    count_value: Callable[[ConnectionRecord], float]
    distinct_destinations: bool = False

    @property
    def name(self) -> str:
        """Stable string name of the feature."""
        return self.feature.value


def _is_outbound_tcp(record: ConnectionRecord) -> bool:
    return record.is_outbound and record.protocol == IPProtocol.TCP


def _is_outbound_udp(record: ConnectionRecord) -> bool:
    return record.is_outbound and record.protocol == IPProtocol.UDP


def _is_outbound(record: ConnectionRecord) -> bool:
    return record.is_outbound


def _one(record: ConnectionRecord) -> float:
    return 1.0


def _syn_count(record: ConnectionRecord) -> float:
    return float(record.syn_count)


#: Registry of the paper's six features, keyed by :class:`Feature`.
FEATURES: Dict[Feature, FeatureDefinition] = {
    Feature.DNS_CONNECTIONS: FeatureDefinition(
        feature=Feature.DNS_CONNECTIONS,
        description="Number of DNS connections (queries) per bin",
        anomaly="Botnet C&C",
        predicate=lambda record: record.is_outbound and is_dns(record),
        count_value=_one,
    ),
    Feature.TCP_CONNECTIONS: FeatureDefinition(
        feature=Feature.TCP_CONNECTIONS,
        description="Number of outbound TCP connections per bin",
        anomaly="scans, DDoS",
        predicate=_is_outbound_tcp,
        count_value=_one,
    ),
    Feature.TCP_SYN: FeatureDefinition(
        feature=Feature.TCP_SYN,
        description="Number of TCP SYN packets sent per bin",
        anomaly="scans, DDoS",
        predicate=_is_outbound_tcp,
        count_value=_syn_count,
    ),
    Feature.HTTP_CONNECTIONS: FeatureDefinition(
        feature=Feature.HTTP_CONNECTIONS,
        description="Number of outbound HTTP (port 80) connections per bin",
        anomaly="click fraud, DDoS",
        predicate=lambda record: record.is_outbound and is_http(record),
        count_value=_one,
    ),
    Feature.DISTINCT_CONNECTIONS: FeatureDefinition(
        feature=Feature.DISTINCT_CONNECTIONS,
        description="Number of distinct destination IP addresses contacted per bin",
        anomaly="scans",
        predicate=_is_outbound,
        count_value=_one,
        distinct_destinations=True,
    ),
    Feature.UDP_CONNECTIONS: FeatureDefinition(
        feature=Feature.UDP_CONNECTIONS,
        description="Number of outbound UDP flows per bin",
        anomaly="scans, DDoS",
        predicate=_is_outbound_udp,
        count_value=_one,
    ),
}

#: The features in the order Table 1 lists them.
PAPER_FEATURES: Tuple[Feature, ...] = (
    Feature.DNS_CONNECTIONS,
    Feature.TCP_CONNECTIONS,
    Feature.TCP_SYN,
    Feature.HTTP_CONNECTIONS,
    Feature.DISTINCT_CONNECTIONS,
    Feature.UDP_CONNECTIONS,
)
