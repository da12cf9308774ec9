"""Packet header data model.

Only the header fields the feature extractor needs are modelled: timestamps,
IP addresses, transport protocol, ports, TCP flags and payload length.  IP
addresses are stored as 32-bit integers for compactness; helpers convert to
and from dotted-quad strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum, IntFlag

from repro.utils.validation import require


class IPProtocol(IntEnum):
    """IP protocol numbers for the transports we model."""

    ICMP = 1
    TCP = 6
    UDP = 17


class TCPFlags(IntFlag):
    """TCP flag bits (subset relevant to connection assembly)."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to a 32-bit integer."""
    parts = address.split(".")
    require(len(parts) == 4, f"invalid IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        require(0 <= octet <= 255, f"invalid IPv4 octet in {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 address."""
    require(0 <= value <= 0xFFFFFFFF, "IPv4 integer out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Packet:
    """A single captured packet (header summary).

    Attributes
    ----------
    timestamp:
        Capture time in seconds since the trace epoch.
    src_ip, dst_ip:
        IPv4 addresses as 32-bit integers.
    protocol:
        Transport protocol.
    src_port, dst_port:
        Transport ports (0 for ICMP).
    flags:
        TCP flags (``TCPFlags.NONE`` for non-TCP packets).
    payload_length:
        Transport payload length in bytes.
    """

    timestamp: float
    src_ip: int
    dst_ip: int
    protocol: IPProtocol
    src_port: int = 0
    dst_port: int = 0
    flags: TCPFlags = TCPFlags.NONE
    payload_length: int = 0

    def __post_init__(self) -> None:
        require(self.timestamp >= 0, "timestamp must be non-negative")
        require(0 <= self.src_port <= 65535, "src_port out of range")
        require(0 <= self.dst_port <= 65535, "dst_port out of range")
        require(self.payload_length >= 0, "payload_length must be non-negative")

    @property
    def is_syn(self) -> bool:
        """True for a pure connection-initiating SYN (SYN set, ACK clear)."""
        return bool(self.flags & TCPFlags.SYN) and not bool(self.flags & TCPFlags.ACK)
