"""Application-session models used by the packet-level trace generator.

A *session* is a short burst of application activity (loading a web page,
resolving names, pulling a software update) that expands into a handful of
transport connections.  The packet-level generator schedules sessions over
time and converts each connection intent into packets; the assembler and
feature extractor then rebuild the per-bin counts, exercising the same
pipeline the paper ran on real traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.traces.packet import IPProtocol, Packet, TCPFlags, ip_to_int
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class ConnectionIntent:
    """One planned transport connection within a session."""

    offset: float
    protocol: IPProtocol
    dst_ip: int
    dst_port: int
    payload_bytes: int = 512
    duration: float = 0.5
    completes_handshake: bool = True

    def __post_init__(self) -> None:
        require(self.offset >= 0, "offset must be non-negative")
        require(self.duration >= 0, "duration must be non-negative")
        require(self.payload_bytes >= 0, "payload_bytes must be non-negative")


@dataclass(frozen=True)
class ApplicationSession:
    """A burst of application activity starting at ``start_time``."""

    start_time: float
    kind: str
    connections: Sequence[ConnectionIntent]


class SessionModel:
    """Interface: generate one :class:`ApplicationSession` at a given time."""

    kind = "generic"

    def generate(self, start_time: float, rng: np.random.Generator) -> ApplicationSession:
        """Produce a session starting at ``start_time``."""
        raise NotImplementedError


def _random_remote_ip(rng: np.random.Generator) -> int:
    """Draw a pseudo-random public-looking destination address."""
    # Avoid 0.x, 10.x, 127.x, 192.168.x to keep destinations "external".
    first_octet = int(rng.integers(11, 223))
    while first_octet in (10, 127, 192):
        first_octet = int(rng.integers(11, 223))
    return (
        (first_octet << 24)
        | (int(rng.integers(0, 256)) << 16)
        | (int(rng.integers(0, 256)) << 8)
        | int(rng.integers(1, 255))
    )


class BrowsingSessionModel(SessionModel):
    """Web browsing: a few DNS lookups followed by several HTTP(S) connections."""

    kind = "browsing"

    def __init__(self, mean_pages: float = 3.0, connections_per_page: float = 6.0) -> None:
        require_positive(mean_pages, "mean_pages")
        require_positive(connections_per_page, "connections_per_page")
        self._mean_pages = mean_pages
        self._connections_per_page = connections_per_page

    def generate(self, start_time: float, rng: np.random.Generator) -> ApplicationSession:
        pages = max(1, int(rng.poisson(self._mean_pages)))
        dns_server = ip_to_int("10.0.0.53")
        connections: List[ConnectionIntent] = []
        offset = 0.0
        for _ in range(pages):
            lookups = max(1, int(rng.poisson(2.0)))
            for _ in range(lookups):
                connections.append(
                    ConnectionIntent(
                        offset=offset,
                        protocol=IPProtocol.UDP,
                        dst_ip=dns_server,
                        dst_port=53,
                        payload_bytes=int(rng.integers(40, 120)),
                        duration=0.05,
                    )
                )
                offset += float(rng.exponential(0.2))
            fetches = max(1, int(rng.poisson(self._connections_per_page)))
            page_hosts = [_random_remote_ip(rng) for _ in range(max(1, fetches // 3))]
            for _ in range(fetches):
                port = 80 if rng.uniform() < 0.55 else 443
                connections.append(
                    ConnectionIntent(
                        offset=offset,
                        protocol=IPProtocol.TCP,
                        dst_ip=page_hosts[int(rng.integers(0, len(page_hosts)))],
                        dst_port=port,
                        payload_bytes=int(rng.integers(500, 50_000)),
                        duration=float(rng.uniform(0.2, 3.0)),
                    )
                )
                offset += float(rng.exponential(0.5))
            offset += float(rng.exponential(10.0))
        return ApplicationSession(start_time=start_time, kind=self.kind, connections=tuple(connections))


class DNSLookupModel(SessionModel):
    """Background DNS chatter (mail polling, service refresh)."""

    kind = "dns_background"

    def __init__(self, mean_lookups: float = 2.0) -> None:
        require_positive(mean_lookups, "mean_lookups")
        self._mean_lookups = mean_lookups

    def generate(self, start_time: float, rng: np.random.Generator) -> ApplicationSession:
        lookups = max(1, int(rng.poisson(self._mean_lookups)))
        dns_server = ip_to_int("10.0.0.53")
        connections = [
            ConnectionIntent(
                offset=float(index * rng.exponential(0.3)),
                protocol=IPProtocol.UDP,
                dst_ip=dns_server,
                dst_port=53,
                payload_bytes=int(rng.integers(40, 100)),
                duration=0.05,
            )
            for index in range(lookups)
        ]
        return ApplicationSession(start_time=start_time, kind=self.kind, connections=tuple(connections))


class BulkTransferModel(SessionModel):
    """A long TCP transfer (software update, file sync) to one destination."""

    kind = "bulk_transfer"

    def __init__(self, mean_bytes: float = 5_000_000.0) -> None:
        require_positive(mean_bytes, "mean_bytes")
        self._mean_bytes = mean_bytes

    def generate(self, start_time: float, rng: np.random.Generator) -> ApplicationSession:
        destination = _random_remote_ip(rng)
        connections = [
            ConnectionIntent(
                offset=0.0,
                protocol=IPProtocol.TCP,
                dst_ip=destination,
                dst_port=443,
                payload_bytes=int(rng.exponential(self._mean_bytes)),
                duration=float(rng.uniform(10.0, 120.0)),
            )
        ]
        return ApplicationSession(start_time=start_time, kind=self.kind, connections=tuple(connections))


class PeerChatterModel(SessionModel):
    """Many small UDP flows to distinct peers (VoIP, P2P, discovery protocols)."""

    kind = "peer_chatter"

    def __init__(self, mean_peers: float = 8.0) -> None:
        require_positive(mean_peers, "mean_peers")
        self._mean_peers = mean_peers

    def generate(self, start_time: float, rng: np.random.Generator) -> ApplicationSession:
        peers = max(1, int(rng.poisson(self._mean_peers)))
        connections = [
            ConnectionIntent(
                offset=float(rng.uniform(0.0, 30.0)),
                protocol=IPProtocol.UDP,
                dst_ip=_random_remote_ip(rng),
                dst_port=int(rng.integers(1024, 65000)),
                payload_bytes=int(rng.integers(60, 1200)),
                duration=float(rng.uniform(0.1, 5.0)),
            )
            for _ in range(peers)
        ]
        return ApplicationSession(start_time=start_time, kind=self.kind, connections=tuple(connections))


def session_to_packets(
    session: ApplicationSession, host_ip: int, rng: np.random.Generator
) -> List[Packet]:
    """Expand a session's connection intents into packets sent by ``host_ip``.

    TCP connections are expanded into SYN / SYN-ACK / ACK, a few data packets
    in each direction and a FIN exchange; UDP flows into a request and an
    optional response.  Packet counts are kept small (the feature extractor
    only needs connection-level structure, not full payload realism).
    """
    packets: List[Packet] = []
    for intent in session.connections:
        start = session.start_time + intent.offset
        source_port = int(rng.integers(1025, 65000))
        if intent.protocol == IPProtocol.TCP:
            packets.extend(
                _tcp_connection_packets(start, host_ip, source_port, intent, rng)
            )
        else:
            packets.append(
                Packet(
                    timestamp=start,
                    src_ip=host_ip,
                    dst_ip=intent.dst_ip,
                    protocol=IPProtocol.UDP,
                    src_port=source_port,
                    dst_port=intent.dst_port,
                    payload_length=intent.payload_bytes,
                )
            )
            if rng.uniform() < 0.9:
                packets.append(
                    Packet(
                        timestamp=start + min(intent.duration, 0.2),
                        src_ip=intent.dst_ip,
                        dst_ip=host_ip,
                        protocol=IPProtocol.UDP,
                        src_port=intent.dst_port,
                        dst_port=source_port,
                        payload_length=int(rng.integers(40, 600)),
                    )
                )
    packets.sort(key=lambda packet: packet.timestamp)
    return packets


def _tcp_connection_packets(
    start: float,
    host_ip: int,
    source_port: int,
    intent: ConnectionIntent,
    rng: np.random.Generator,
) -> List[Packet]:
    """Build the packet exchange for a single TCP connection intent."""
    packets = [
        Packet(
            timestamp=start,
            src_ip=host_ip,
            dst_ip=intent.dst_ip,
            protocol=IPProtocol.TCP,
            src_port=source_port,
            dst_port=intent.dst_port,
            flags=TCPFlags.SYN,
        )
    ]
    if not intent.completes_handshake:
        return packets
    rtt = float(rng.uniform(0.01, 0.15))
    packets.append(
        Packet(
            timestamp=start + rtt,
            src_ip=intent.dst_ip,
            dst_ip=host_ip,
            protocol=IPProtocol.TCP,
            src_port=intent.dst_port,
            dst_port=source_port,
            flags=TCPFlags.SYN | TCPFlags.ACK,
        )
    )
    packets.append(
        Packet(
            timestamp=start + 2 * rtt,
            src_ip=host_ip,
            dst_ip=intent.dst_ip,
            protocol=IPProtocol.TCP,
            src_port=source_port,
            dst_port=intent.dst_port,
            flags=TCPFlags.ACK,
        )
    )
    data_packets = max(1, min(6, intent.payload_bytes // 1460))
    step = max(intent.duration / (data_packets + 1), 0.01)
    for index in range(data_packets):
        timestamp = start + 2 * rtt + (index + 1) * step
        packets.append(
            Packet(
                timestamp=timestamp,
                src_ip=host_ip,
                dst_ip=intent.dst_ip,
                protocol=IPProtocol.TCP,
                src_port=source_port,
                dst_port=intent.dst_port,
                flags=TCPFlags.ACK | TCPFlags.PSH,
                payload_length=min(intent.payload_bytes, 1460),
            )
        )
    end = start + 2 * rtt + (data_packets + 1) * step
    packets.append(
        Packet(
            timestamp=end,
            src_ip=host_ip,
            dst_ip=intent.dst_ip,
            protocol=IPProtocol.TCP,
            src_port=source_port,
            dst_port=intent.dst_port,
            flags=TCPFlags.FIN | TCPFlags.ACK,
        )
    )
    packets.append(
        Packet(
            timestamp=end + rtt,
            src_ip=intent.dst_ip,
            dst_ip=host_ip,
            protocol=IPProtocol.TCP,
            src_port=intent.dst_port,
            dst_port=source_port,
            flags=TCPFlags.ACK,
        )
    )
    return packets
