"""Flow keys and connection records.

A *connection record* is the unit the feature extractor consumes: one entry
per transport-level connection attempt (TCP connection, UDP flow, DNS query),
matching what Bro's connection log provides.  The paper's features are counts
of connection records per time bin, filtered by protocol, port or flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.traces.packet import IPProtocol, Packet, int_to_ip
from repro.utils.validation import require


class FlowDirection(Enum):
    """Direction of a flow relative to the monitored end host."""

    OUTBOUND = "outbound"
    INBOUND = "inbound"


@dataclass(frozen=True)
class FiveTuple:
    """Canonical flow key: addresses, ports, protocol."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: IPProtocol

    def reversed(self) -> "FiveTuple":
        """The same flow seen from the opposite direction."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def canonical(self) -> "FiveTuple":
        """A direction-independent key (lower endpoint first)."""
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port):
            return self
        return self.reversed()

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{int_to_ip(self.src_ip)}:{self.src_port} -> "
            f"{int_to_ip(self.dst_ip)}:{self.dst_port}/{self.protocol.name}"
        )


def flow_key_of(packet: Packet) -> FiveTuple:
    """Extract the five-tuple flow key of a packet."""
    return FiveTuple(
        src_ip=packet.src_ip,
        dst_ip=packet.dst_ip,
        src_port=packet.src_port,
        dst_port=packet.dst_port,
        protocol=packet.protocol,
    )


@dataclass(frozen=True)
class ConnectionRecord:
    """One transport-level connection, as produced by the assembler.

    Attributes
    ----------
    start_time:
        Timestamp of the first packet of the connection.
    end_time:
        Timestamp of the last packet seen (equal to ``start_time`` for
        single-packet flows).
    key:
        The originating five-tuple (source is the monitored host for
        outbound connections).
    direction:
        Whether the monitored host originated the connection.
    syn_count:
        Number of pure SYN packets sent by the originator (TCP only).
    packet_count:
        Total packets observed in either direction.
    byte_count:
        Total payload bytes observed in either direction.
    established:
        For TCP, whether the handshake completed; always True for UDP.
    """

    start_time: float
    end_time: float
    key: FiveTuple
    direction: FlowDirection = FlowDirection.OUTBOUND
    syn_count: int = 0
    packet_count: int = 1
    byte_count: int = 0
    established: bool = True

    def __post_init__(self) -> None:
        require(self.end_time >= self.start_time, "end_time must be >= start_time")
        require(self.syn_count >= 0, "syn_count must be non-negative")
        require(self.packet_count >= 1, "packet_count must be >= 1")
        require(self.byte_count >= 0, "byte_count must be non-negative")

    @property
    def protocol(self) -> IPProtocol:
        """Transport protocol of the connection."""
        return self.key.protocol

    @property
    def dst_ip(self) -> int:
        """Destination (remote) address of the connection."""
        return self.key.dst_ip

    @property
    def dst_port(self) -> int:
        """Destination (remote) port of the connection."""
        return self.key.dst_port

    @property
    def duration(self) -> float:
        """Connection duration in seconds."""
        return self.end_time - self.start_time

    @property
    def is_outbound(self) -> bool:
        """True when the monitored host originated the connection."""
        return self.direction == FlowDirection.OUTBOUND
