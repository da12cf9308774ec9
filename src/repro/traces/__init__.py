"""Packet / flow / connection trace substrate.

The paper processed raw end-host packet traces with Bro to build per-bin
feature time series.  This package reproduces that substrate: a packet-header
data model, flow keys and connection records, a TCP connection-assembly state
machine, lightweight DNS/HTTP classification and an end-host capture-session
model (mobile laptops changing interfaces and locations).
"""

from repro.traces.packet import (
    IPProtocol,
    Packet,
    TCPFlags,
)
from repro.traces.flow import ConnectionRecord, FiveTuple, FlowDirection, flow_key_of
from repro.traces.assembler import ConnectionAssembler, TCPConnectionState
from repro.traces.protocols import (
    ApplicationProtocol,
    classify_connection,
    is_dns,
    is_http,
    WELL_KNOWN_PORTS,
)
from repro.traces.capture import CaptureEnvironment, CaptureSession, NetworkLocation

__all__ = [
    "IPProtocol",
    "Packet",
    "TCPFlags",
    "FiveTuple",
    "FlowDirection",
    "ConnectionRecord",
    "flow_key_of",
    "ConnectionAssembler",
    "TCPConnectionState",
    "ApplicationProtocol",
    "classify_connection",
    "is_dns",
    "is_http",
    "WELL_KNOWN_PORTS",
    "CaptureEnvironment",
    "CaptureSession",
    "NetworkLocation",
]
