"""Tests for repro.traces: packets, flows, assembly, protocols, capture, serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.traces.assembler import ConnectionAssembler, assemble_connections
from repro.traces.capture import CaptureEnvironment, CaptureSession, NetworkLocation
from repro.traces.flow import ConnectionRecord, FlowDirection, flow_key_of
from repro.traces.packet import (
    IPProtocol,
    Packet,
    TCPFlags,
    int_to_ip,
    ip_to_int,
    make_dns_query,
    make_tcp_packet,
    make_udp_packet,
)
from repro.traces.protocols import ApplicationProtocol, classify_connection, is_dns, is_http
from repro.traces.serialization import (
    read_connections,
    read_packets,
    write_connections,
    write_packets,
)
from repro.utils.validation import ValidationError

HOST = "10.0.0.5"
HOST_IP = ip_to_int(HOST)
REMOTE = "93.184.216.34"


def _tcp_handshake(start: float, dst: str = REMOTE, dst_port: int = 80, src_port: int = 40000):
    """A complete TCP connection: handshake, one data packet, FIN exchange."""
    return [
        make_tcp_packet(start, HOST, dst, src_port, dst_port, TCPFlags.SYN),
        make_tcp_packet(start + 0.01, dst, HOST, dst_port, src_port, TCPFlags.SYN | TCPFlags.ACK),
        make_tcp_packet(start + 0.02, HOST, dst, src_port, dst_port, TCPFlags.ACK),
        make_tcp_packet(start + 0.05, HOST, dst, src_port, dst_port, TCPFlags.ACK | TCPFlags.PSH, 500),
        make_tcp_packet(start + 0.10, HOST, dst, src_port, dst_port, TCPFlags.FIN | TCPFlags.ACK),
        make_tcp_packet(start + 0.11, dst, HOST, dst_port, src_port, TCPFlags.ACK),
    ]


class TestAddressConversion:
    def test_roundtrip(self):
        for address in ("0.0.0.0", "10.1.2.3", "255.255.255.255", REMOTE):
            assert int_to_ip(ip_to_int(address)) == address

    def test_invalid_addresses_rejected(self):
        with pytest.raises(ValidationError):
            ip_to_int("1.2.3")
        with pytest.raises(ValidationError):
            ip_to_int("1.2.3.300")

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip_from_int(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestPacket:
    def test_syn_detection(self):
        syn = make_tcp_packet(0.0, HOST, REMOTE, 1234, 80, TCPFlags.SYN)
        synack = make_tcp_packet(0.0, REMOTE, HOST, 80, 1234, TCPFlags.SYN | TCPFlags.ACK)
        assert syn.is_syn and not synack.is_syn

    def test_protocol_flags(self):
        udp = make_udp_packet(0.0, HOST, REMOTE, 5000, 53)
        assert udp.is_udp and not udp.is_tcp

    def test_dns_query_helper(self):
        query = make_dns_query(1.0, HOST, "10.0.0.53")
        assert query.dst_port == 53 and query.is_udp

    def test_invalid_port_rejected(self):
        with pytest.raises(ValidationError):
            Packet(timestamp=0.0, src_ip=0, dst_ip=0, protocol=IPProtocol.TCP, src_port=70000)


class TestFlowKeys:
    def test_canonical_is_direction_independent(self):
        forward = flow_key_of(make_tcp_packet(0.0, HOST, REMOTE, 1234, 80))
        backward = flow_key_of(make_tcp_packet(0.0, REMOTE, HOST, 80, 1234))
        assert forward.canonical() == backward.canonical()
        assert forward.reversed() == backward

    def test_connection_record_properties(self):
        record = ConnectionRecord(
            start_time=10.0,
            end_time=12.0,
            key=flow_key_of(make_tcp_packet(10.0, HOST, REMOTE, 1234, 443)),
            syn_count=1,
            packet_count=6,
            byte_count=900,
        )
        assert record.duration == pytest.approx(2.0)
        assert record.is_outbound
        assert record.dst_port == 443
        assert record.with_attack_flag().is_attack

    def test_record_validation(self):
        key = flow_key_of(make_tcp_packet(0.0, HOST, REMOTE, 1, 2))
        with pytest.raises(ValidationError):
            ConnectionRecord(start_time=5.0, end_time=4.0, key=key)


class TestConnectionAssembler:
    def test_single_connection_assembled(self):
        records = assemble_connections(_tcp_handshake(100.0), HOST_IP)
        assert len(records) == 1
        record = records[0]
        assert record.established
        assert record.syn_count == 1
        assert record.direction == FlowDirection.OUTBOUND
        assert record.dst_port == 80

    def test_multiple_connections_distinct_ports(self):
        packets = _tcp_handshake(0.0, src_port=40000) + _tcp_handshake(10.0, src_port=40001)
        packets.sort(key=lambda p: p.timestamp)
        records = assemble_connections(packets, HOST_IP)
        assert len(records) == 2

    def test_rst_closes_connection(self):
        packets = [
            make_tcp_packet(0.0, HOST, REMOTE, 4000, 80, TCPFlags.SYN),
            make_tcp_packet(0.2, REMOTE, HOST, 80, 4000, TCPFlags.RST),
        ]
        records = assemble_connections(packets, HOST_IP)
        assert len(records) == 1

    def test_unanswered_syn_flushed_not_established(self):
        packets = [make_tcp_packet(0.0, HOST, REMOTE, 4000, 80, TCPFlags.SYN)]
        records = assemble_connections(packets, HOST_IP)
        assert len(records) == 1
        assert not records[0].established
        assert records[0].syn_count == 1

    def test_udp_flow_timeout_splits_flows(self):
        packets = [
            make_udp_packet(0.0, HOST, REMOTE, 5000, 9999),
            make_udp_packet(200.0, HOST, REMOTE, 5000, 9999),
        ]
        records = assemble_connections(packets, HOST_IP, udp_timeout=60.0)
        assert len(records) == 2

    def test_inbound_direction_detected(self):
        packets = [make_udp_packet(0.0, REMOTE, HOST, 53, 5000)]
        records = assemble_connections(packets, HOST_IP)
        assert records[0].direction == FlowDirection.INBOUND

    def test_out_of_order_rejected(self):
        assembler = ConnectionAssembler(HOST_IP)
        assembler.feed(make_udp_packet(10.0, HOST, REMOTE, 1, 2))
        with pytest.raises(ValidationError):
            assembler.feed(make_udp_packet(5.0, HOST, REMOTE, 1, 2))

    def test_drain_clears_completed(self):
        assembler = ConnectionAssembler(HOST_IP)
        assembler.feed_many(_tcp_handshake(0.0))
        assembler.flush()
        assert len(assembler.drain()) == 1
        assert assembler.drain() == []


class TestProtocolClassification:
    def _record(self, packet):
        return ConnectionRecord(
            start_time=packet.timestamp, end_time=packet.timestamp, key=flow_key_of(packet)
        )

    def test_dns_http_https(self):
        assert is_dns(self._record(make_udp_packet(0, HOST, REMOTE, 5000, 53)))
        assert is_http(self._record(make_tcp_packet(0, HOST, REMOTE, 5000, 80)))
        assert classify_connection(
            self._record(make_tcp_packet(0, HOST, REMOTE, 5000, 443))
        ) == ApplicationProtocol.HTTPS

    def test_other_buckets(self):
        assert classify_connection(
            self._record(make_tcp_packet(0, HOST, REMOTE, 5000, 2222))
        ) == ApplicationProtocol.OTHER_TCP
        assert classify_connection(
            self._record(make_udp_packet(0, HOST, REMOTE, 5000, 2222))
        ) == ApplicationProtocol.OTHER_UDP

    def test_http_over_udp_not_http(self):
        record = self._record(make_udp_packet(0, HOST, REMOTE, 5000, 80))
        assert not is_http(record)


class TestCaptureSession:
    def _session(self):
        session = CaptureSession(host_id=1)
        session.add_environment(
            CaptureEnvironment(0.0, 100.0, NetworkLocation.OFFICE_WIRED, HOST_IP)
        )
        session.add_environment(
            CaptureEnvironment(100.0, 150.0, NetworkLocation.OFFLINE, HOST_IP)
        )
        session.add_environment(CaptureEnvironment(150.0, 200.0, NetworkLocation.HOME, HOST_IP))
        return session

    def test_location_lookup(self):
        session = self._session()
        assert session.location_at(50.0) == NetworkLocation.OFFICE_WIRED
        assert session.location_at(120.0) == NetworkLocation.OFFLINE
        assert session.location_at(175.0) == NetworkLocation.HOME
        assert session.location_at(500.0) == NetworkLocation.OFFLINE

    def test_vectorised_location_lookup_matches_scalar(self):
        session = self._session()
        # Boundaries, gap interiors, and out-of-range timestamps alike.
        timestamps = [0.0, 50.0, 99.999, 100.0, 120.0, 150.0, 175.0, 199.999, 200.0, 500.0]
        assert session.locations_at(timestamps) == [
            session.location_at(t) for t in timestamps
        ]

    def test_vectorised_location_lookup_empty_session(self):
        session = CaptureSession(host_id=2)
        assert session.locations_at([0.0, 10.0]) == [NetworkLocation.OFFLINE] * 2

    def test_online_fraction(self):
        session = self._session()
        assert session.online_fraction() == pytest.approx(150.0 / 200.0)

    def test_time_in_location(self):
        assert self._session().time_in_location(NetworkLocation.HOME) == pytest.approx(50.0)

    def test_overlapping_environment_rejected(self):
        session = self._session()
        with pytest.raises(ValidationError):
            session.add_environment(
                CaptureEnvironment(100.0, 180.0, NetworkLocation.TRAVEL, HOST_IP)
            )

    def test_from_segments_matches_appended_environments(self):
        built = CaptureSession.from_segments(
            1,
            np.array([0.0, 100.0, 150.0]),
            np.array([100.0, 150.0, 200.0]),
            [NetworkLocation.OFFICE_WIRED, NetworkLocation.OFFLINE, NetworkLocation.HOME],
            HOST_IP,
            ["eth0", "eth0", "eth0"],
        )
        assert built == self._session()

    @pytest.mark.parametrize(
        "starts, ends",
        [
            ([0.0, 100.0], [100.0, 100.0]),  # zero length
            ([0.0, 50.0], [100.0, 150.0]),  # overlap
            ([100.0, 0.0], [150.0, 50.0]),  # out of time order
        ],
    )
    def test_from_segments_rejects_bad_timelines(self, starts, ends):
        with pytest.raises(ValidationError):
            CaptureSession.from_segments(
                1,
                np.array(starts),
                np.array(ends),
                [NetworkLocation.HOME] * 2,
                HOST_IP,
                ["wlan0"] * 2,
            )

    def test_inside_enterprise_flag(self):
        assert NetworkLocation.OFFICE_WIRELESS.inside_enterprise
        assert not NetworkLocation.HOME.inside_enterprise


class TestSerialization:
    def test_packet_roundtrip(self, tmp_path):
        packets = _tcp_handshake(5.0) + [make_udp_packet(20.0, HOST, REMOTE, 4000, 53, 77)]
        path = tmp_path / "trace.rpkt"
        write_packets(path, packets)
        restored = read_packets(path)
        assert restored == packets

    def test_connection_roundtrip(self, tmp_path):
        records = assemble_connections(_tcp_handshake(0.0), HOST_IP)
        path = tmp_path / "trace.rcon"
        write_connections(path, records)
        restored = read_connections(path)
        assert len(restored) == len(records)
        assert restored[0].key == records[0].key
        assert restored[0].established == records[0].established

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rpkt"
        path.write_bytes(b"NOTAMAGIC" + b"\x00" * 32)
        with pytest.raises(ValidationError):
            read_packets(path)
