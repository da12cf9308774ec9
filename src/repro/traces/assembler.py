"""TCP/UDP connection assembly.

Turns a time-ordered stream of :class:`~repro.traces.packet.Packet` objects
captured on a single end host into :class:`~repro.traces.flow.ConnectionRecord`
objects, the same role Bro's connection tracking played in the paper's
pipeline.  TCP connections follow a small state machine keyed on SYN / data /
FIN / RST observations; UDP and ICMP flows are delimited by an idle timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional

from repro.traces.flow import ConnectionRecord, FiveTuple, FlowDirection, flow_key_of
from repro.traces.packet import IPProtocol, Packet, TCPFlags
from repro.utils.validation import require, require_positive


class TCPConnectionState(Enum):
    """States of the TCP connection-assembly state machine."""

    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"
    CLOSING = "closing"
    CLOSED = "closed"


@dataclass
class _FlowState:
    """Mutable per-flow accumulator."""

    key: FiveTuple
    direction: FlowDirection
    start_time: float
    last_time: float
    state: TCPConnectionState = TCPConnectionState.SYN_SENT
    syn_count: int = 0
    packet_count: int = 0
    byte_count: int = 0
    established: bool = False
    fin_seen: bool = False
    rst_seen: bool = False

    def to_record(self) -> ConnectionRecord:
        return ConnectionRecord(
            start_time=self.start_time,
            end_time=self.last_time,
            key=self.key,
            direction=self.direction,
            syn_count=self.syn_count,
            packet_count=self.packet_count,
            byte_count=self.byte_count,
            established=self.established,
        )


class ConnectionAssembler:
    """Assemble packets captured on one end host into connection records.

    Parameters
    ----------
    host_ip:
        The monitored host's IPv4 address as a 32-bit integer; packets whose
        source matches are outbound, others inbound.
    udp_timeout:
        Idle gap (seconds) after which a UDP/ICMP flow is considered closed
        and a new packet on the same five-tuple starts a new flow.
    tcp_timeout:
        Idle gap after which an open TCP connection is flushed.
    """

    def __init__(self, host_ip: int, udp_timeout: float = 60.0, tcp_timeout: float = 300.0) -> None:
        require_positive(udp_timeout, "udp_timeout")
        require_positive(tcp_timeout, "tcp_timeout")
        self._host_ip = int(host_ip)
        self._udp_timeout = float(udp_timeout)
        self._tcp_timeout = float(tcp_timeout)
        self._active: Dict[FiveTuple, _FlowState] = {}
        self._completed: List[ConnectionRecord] = []
        self._last_timestamp: Optional[float] = None

    @property
    def host_ip(self) -> int:
        """The monitored host address."""
        return self._host_ip

    # ------------------------------------------------------------------ feed
    def feed(self, packet: Packet) -> None:
        """Process one packet (packets must arrive in non-decreasing time order)."""
        if self._last_timestamp is not None:
            require(
                packet.timestamp >= self._last_timestamp - 1e-9,
                "packets must be fed in non-decreasing timestamp order",
            )
        self._last_timestamp = packet.timestamp
        self._expire_idle(packet.timestamp)

        key = flow_key_of(packet)
        canonical = key.canonical()
        state = self._active.get(canonical)

        if state is None:
            direction = (
                FlowDirection.OUTBOUND if packet.src_ip == self._host_ip else FlowDirection.INBOUND
            )
            # Record the originating orientation, not the canonical one.
            state = _FlowState(
                key=key,
                direction=direction,
                start_time=packet.timestamp,
                last_time=packet.timestamp,
            )
            self._active[canonical] = state

        state.last_time = packet.timestamp
        state.packet_count += 1
        state.byte_count += packet.payload_length

        if packet.protocol == IPProtocol.TCP:
            self._advance_tcp(state, packet, canonical)
        else:
            state.established = True
            state.state = TCPConnectionState.ESTABLISHED

    def feed_many(self, packets: Iterable[Packet]) -> None:
        """Process a packet iterable in order."""
        for packet in packets:
            self.feed(packet)

    def _advance_tcp(self, state: _FlowState, packet: Packet, canonical: FiveTuple) -> None:
        flags = packet.flags
        if packet.is_syn:
            state.syn_count += 1
        if flags & TCPFlags.SYN and flags & TCPFlags.ACK:
            state.established = True
            state.state = TCPConnectionState.ESTABLISHED
        elif flags & TCPFlags.ACK and state.state == TCPConnectionState.SYN_SENT and state.syn_count:
            state.established = True
            state.state = TCPConnectionState.ESTABLISHED
        if flags & TCPFlags.FIN:
            state.fin_seen = True
            state.state = TCPConnectionState.CLOSING
        if flags & TCPFlags.RST:
            state.rst_seen = True
            state.state = TCPConnectionState.CLOSED
            self._finish(canonical)
            return
        if state.fin_seen and flags & TCPFlags.ACK and not (flags & TCPFlags.FIN):
            state.state = TCPConnectionState.CLOSED
            self._finish(canonical)

    # ------------------------------------------------------------- lifecycle
    def _finish(self, canonical: FiveTuple) -> None:
        state = self._active.pop(canonical, None)
        if state is not None:
            self._completed.append(state.to_record())

    def _expire_idle(self, now: float) -> None:
        expired: List[FiveTuple] = []
        for canonical, state in self._active.items():
            timeout = self._tcp_timeout if state.key.protocol == IPProtocol.TCP else self._udp_timeout
            if now - state.last_time > timeout:
                expired.append(canonical)
        for canonical in expired:
            self._finish(canonical)

    def flush(self) -> None:
        """Close every remaining active flow (end of trace)."""
        for canonical in list(self._active):
            self._finish(canonical)

    # --------------------------------------------------------------- results
    def drain(self) -> List[ConnectionRecord]:
        """Return and clear the completed connection records so far."""
        completed = self._completed
        self._completed = []
        return completed

    def connections(self) -> List[ConnectionRecord]:
        """Return completed records without clearing them."""
        return list(self._completed)


def assemble_connections(
    packets: Iterable[Packet], host_ip: int, udp_timeout: float = 60.0, tcp_timeout: float = 300.0
) -> List[ConnectionRecord]:
    """One-shot helper: assemble all packets and return completed records."""
    assembler = ConnectionAssembler(host_ip=host_ip, udp_timeout=udp_timeout, tcp_timeout=tcp_timeout)
    assembler.feed_many(packets)
    assembler.flush()
    return assembler.drain()
