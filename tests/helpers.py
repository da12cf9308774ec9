"""Test-only builders and reference implementations.

The program never calls these: they build test inputs (packets, uniform
attack traces, small load profiles), inspect what a test produced (capture
sessions, exited processes), recompute, one host at a time, what the program
computes in bulk, so the tests can compare the two, or render the payload of
``tests/data/golden_observability.json`` (:func:`observability_golden`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.attacks.base import AttackTrace, FeatureInjection
from repro.engine import PopulationEngine
from repro.features.definitions import Feature
from repro.features.timeseries import TimeSeries
from repro.loadgen import LoadProfile, PhaseSpec, load_profile, plan_events, run_profile
from repro.metrics import (
    CampaignMonitor,
    build_run_record,
    openmetrics_text,
    render_metrics_diff,
)
from repro.metrics.cli import render_run_record
from repro.telemetry import (
    TelemetryRecorder,
    add_count,
    monotonic_now,
    render_trace_report,
    set_gauge,
    summary_payload,
    trace_span,
    use_recorder,
)
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


# ------------------------------------------------------------ load profiles
def tiny_profile(seed: int = 7) -> LoadProfile:
    """A fast two-phase profile exercising the direct evaluation paths."""
    return LoadProfile(
        name="tiny",
        description="test profile",
        num_hosts=8,
        num_weeks=2,
        phases=(
            PhaseSpec(name="ramp", kind="steady-ramp", num_events=2, host_fraction=0.5),
            PhaseSpec(
                name="faults",
                kind="failure-injection",
                num_events=2,
                host_fraction=0.75,
                drop_fraction=0.25,
                corrupt_fraction=0.25,
            ),
        ),
        total_events=4,
        seed=seed,
    )


def tiny_soak_profile() -> LoadProfile:
    """A one-event soak profile exercising the timeline path."""
    return LoadProfile(
        name="tiny-soak",
        description="test soak profile",
        num_hosts=8,
        num_weeks=3,
        phases=(PhaseSpec(name="soak", kind="soak", num_events=1),),
        total_events=1,
    )


class FakeClock:
    """Monotonic counter advancing one second per call."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ----------------------------------------------------- the golden payloads
#: Timestamp and machine fingerprint every golden payload is stamped with.
GOLDEN_TIMESTAMP = "2026-08-07T00:00:00+00:00"
GOLDEN_MACHINE = {"node": "golden", "machine": "x86_64", "cpu": {"count": 2}}

#: The load profiles whose fake-clock report and BENCH JSON are pinned.
GOLDEN_PROFILES = {
    "tiny": tiny_profile,
    "tiny-soak": tiny_soak_profile,
    "demo": lambda: load_profile("demo"),
}

#: RSS every golden run reports (the monitor's and the record's probe).
GOLDEN_RSS = 96 * 1024 * 1024


def json_text(payload: Any) -> str:
    """``payload`` as the CLI writes JSON files: indented, sorted, newline-terminated."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_load_payloads(name: str) -> Dict[str, List[str]]:
    """Fake-clock report and BENCH JSON of one golden profile, as lines."""
    report = run_profile(
        GOLDEN_PROFILES[name](),
        engine=PopulationEngine(workers=1, use_cache=False),
        clock=FakeClock(),
        timestamp=GOLDEN_TIMESTAMP,
    )
    return {
        "report": json_text(report.to_dict()).split("\n"),
        "bench": json_text(report.to_bench_json(machine_info=GOLDEN_MACHINE)).split("\n"),
    }


def plan_sha256(profile: LoadProfile) -> str:
    """SHA-256 of a profile's planned event stream (its ``to_dict()``s)."""
    events = [event.to_dict() for event in plan_events(profile)]
    return hashlib.sha256(json.dumps(events, sort_keys=True).encode("utf-8")).hexdigest()


def golden_workload(recorder: TelemetryRecorder, measure_ticks: int) -> None:
    """A synthetic traced run: every evaluation span kind, counters, gauges, two roots.

    ``measure_ticks`` extra clock reads inflate each ``core.measure`` span,
    so two runs with different values diff on exactly that span.
    """
    with use_recorder(recorder):
        with trace_span("loadgen.run", profile="golden"):
            with trace_span("loadgen.populations"):
                with trace_span("engine.cache.read"):
                    monotonic_now()
                with trace_span("engine.generate"):
                    add_count("engine.cache.hits", 2)
                add_count("engine.cache.misses")
                set_gauge("engine.cache_entries", 3.0)
            with trace_span("loadgen.phase", phase="ramp", kind="steady-ramp"):
                for index in range(3):
                    with trace_span("loadgen.event", index=index), trace_span("core.measure"):
                        for _ in range(measure_ticks + index):
                            monotonic_now()
            with trace_span("loadgen.phase", phase="burst", kind="burst"):
                with trace_span("sweeps.run", sweep="golden"):
                    for index in range(4):
                        with trace_span("sweeps.scenario", scenario=f"s{index}"):
                            with trace_span("core.train"):
                                monotonic_now()
                            with trace_span("core.measure"):
                                for _ in range(measure_ticks * (index % 2 + 1)):
                                    monotonic_now()
                            add_count("sweeps.scenarios_evaluated")
                set_gauge("engine.shards_resident", 2.0)
                set_gauge("engine.shard_bytes_resident", 3.0 * 1024 * 1024)
            soak = trace_span("loadgen.phase", phase="soak", kind="soak")
            with soak, trace_span("temporal.timeline"):
                with trace_span("temporal.train"):
                    monotonic_now()
                for week in (1, 2):
                    with trace_span("temporal.week", week=week):
                        add_count("temporal.weeks_measured")
                        if week == 2:
                            with trace_span("temporal.retrain", week=week):
                                add_count("temporal.retrains")
        monotonic_now()  # an untraced gap between the two roots
        with trace_span("sweeps.run", sweep="tail"), trace_span("optimize.joint"):
            add_count("optimize.iterations", 5)


def golden_record(measure_ticks: int, run_id: str):
    """One fake-clock run: its history record, snapshot and monitor stream."""
    recorder = TelemetryRecorder(clock=FakeClock(step=0.0015))
    stream = io.StringIO()
    monitor = CampaignMonitor(
        recorder, stream=stream, interval=0.004, rss_probe=lambda: GOLDEN_RSS
    )
    started = recorder.clock()
    golden_workload(recorder, measure_ticks)
    with use_recorder(recorder):
        monitor.close()
    snapshot = recorder.snapshot()
    record = build_run_record(
        snapshot,
        command="loadgen run",
        wall_clock_seconds=recorder.clock() - started,
        annotations={"run_id": run_id, "profile": "golden"},
        timestamp=GOLDEN_TIMESTAMP,
        rss_probe=lambda: GOLDEN_RSS,
    )
    return record, snapshot, stream.getvalue()


def golden_renderings() -> Dict[str, List[str]]:
    """Every run-metrics and trace rendering of the golden run, as lines."""
    record, snapshot, monitor_stream = golden_record(measure_ticks=2, run_id="golden-a")
    slower, _, _ = golden_record(measure_ticks=5, run_id="golden-b")
    texts = {
        "render_run_record": render_run_record(record),
        "openmetrics_text": openmetrics_text(record),
        "render_metrics_diff": render_metrics_diff(record, slower),
        "render_metrics_diff_top3": render_metrics_diff(record, slower, top=3),
        "render_trace_report": render_trace_report(snapshot),
        "render_trace_report_depth2": render_trace_report(snapshot, max_depth=2),
        "trace_report_json": json.dumps(summary_payload(snapshot), indent=2, sort_keys=True),
        "monitor": monitor_stream,
    }
    return {name: text.split("\n") for name, text in texts.items()}


def observability_golden() -> Dict[str, Any]:
    """The payload of ``tests/data/golden_observability.json``."""
    return {
        "loadgen": {name: golden_load_payloads(name) for name in GOLDEN_PROFILES},
        "demo_plan_sha256": plan_sha256(load_profile("demo")),
        "renderings": golden_renderings(),
    }
