"""Test-only builders and reference implementations.

The program never calls these: they build test inputs (packets, uniform
attack traces), inspect what a test produced (capture sessions, exited
processes) or recompute, one host at a time, what the program computes in
bulk, so the tests can compare the two.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.attacks.base import AttackTrace, FeatureInjection
from repro.features.definitions import Feature
from repro.features.timeseries import TimeSeries
from repro.traces.capture import CaptureSession, NetworkLocation
from repro.traces.packet import IPProtocol, Packet, TCPFlags, ip_to_int
from repro.utils.timeutils import BinSpec
from repro.utils.validation import require, require_non_negative


def process_exited(pid: int) -> bool:
    """True once ``pid`` has exited (an unreaped zombie counts as exited)."""
    stat = Path(f"/proc/{pid}/stat")
    if stat.parent.parent.is_dir():
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            return True
        return state in ("Z", "X")
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def make_tcp_packet(
    timestamp: float,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    flags: TCPFlags = TCPFlags.ACK,
    payload_length: int = 0,
) -> Packet:
    """A TCP packet with string addresses."""
    return Packet(
        timestamp=timestamp,
        src_ip=ip_to_int(src_ip),
        dst_ip=ip_to_int(dst_ip),
        protocol=IPProtocol.TCP,
        src_port=src_port,
        dst_port=dst_port,
        flags=flags,
        payload_length=payload_length,
    )


def make_udp_packet(
    timestamp: float,
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload_length: int = 0,
) -> Packet:
    """A UDP packet with string addresses."""
    return Packet(
        timestamp=timestamp,
        src_ip=ip_to_int(src_ip),
        dst_ip=ip_to_int(dst_ip),
        protocol=IPProtocol.UDP,
        src_port=src_port,
        dst_port=dst_port,
        payload_length=payload_length,
    )


def location_at(session: CaptureSession, timestamp: float) -> NetworkLocation:
    """Where ``session``'s host was at ``timestamp`` (OFFLINE when no segment covers it)."""
    for environment in session.environments:
        if environment.contains(timestamp):
            return environment.location
    return NetworkLocation.OFFLINE


def online_fraction(session: CaptureSession) -> float:
    """Fraction of ``session`` during which the host was not OFFLINE."""
    total = session.end_time - session.start_time
    if total <= 0:
        return 0.0
    online = sum(
        environment.duration
        for environment in session.environments
        if environment.location != NetworkLocation.OFFLINE
    )
    return online / total


def uniform_injection(
    feature: Feature,
    amount_per_bin: float,
    num_bins: int,
    bin_spec: BinSpec,
    name: Optional[str] = None,
) -> AttackTrace:
    """An attack that adds ``amount_per_bin`` to every bin of one feature."""
    require_non_negative(amount_per_bin, "amount_per_bin")
    require(num_bins >= 1, "num_bins must be >= 1")
    injection = FeatureInjection(feature=feature, amounts=np.full(num_bins, float(amount_per_bin)))
    return AttackTrace(
        name=name or f"uniform-{feature.value}-{amount_per_bin:g}",
        injections={feature: injection},
        bin_spec=bin_spec,
    )


@dataclass(frozen=True)
class InjectedSeries:
    """A benign series with attack traffic overlaid, plus ground truth.

    Attributes
    ----------
    observed:
        What the detector sees: benign + attack counts per bin.
    benign:
        The original benign series.
    attack_amounts:
        The injected amounts per bin (ground truth).
    """

    observed: TimeSeries
    benign: TimeSeries
    attack_amounts: np.ndarray

    @property
    def attack_mask(self) -> np.ndarray:
        """Boolean mask of bins that carry attack traffic."""
        return self.attack_amounts[: self.benign.num_bins] > 0

    @property
    def num_attack_bins(self) -> int:
        """Number of bins carrying attack traffic."""
        return int(np.count_nonzero(self.attack_mask))


def inject_attack(benign: TimeSeries, attack: AttackTrace, feature: Feature) -> InjectedSeries:
    """Overlay ``attack``'s injection for ``feature`` onto one host's ``benign`` series.

    The reference for the batch attack builders and the measurement kernel:
    the attack trace may be shorter or longer than the benign series, and
    only the overlapping prefix is injected (the paper overlays a one-week
    zombie trace onto each one-week test window).
    """
    require(
        abs(benign.bin_width - attack.bin_spec.width) < 1e-9,
        "attack and benign series must use the same bin width",
    )
    amounts = attack.amounts(feature)
    length = benign.num_bins
    padded = np.zeros(length)
    usable = min(length, amounts.size)
    padded[:usable] = amounts[:usable]
    observed = TimeSeries(np.asarray(benign.values) + padded, benign.bin_spec)
    return InjectedSeries(observed=observed, benign=benign, attack_amounts=padded)
