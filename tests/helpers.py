"""Test-only builders and reference implementations.

The program never calls these: they build test inputs (packets, small load
profiles), inspect what a test produced (capture sessions, exited
processes), recompute, one host or group at a time, what
the program computes in bulk, so the tests can compare the two, or render
the payloads of ``tests/data/golden_observability.json``
(:func:`observability_golden`) and ``tests/data/golden_specs.json``
(:func:`specs_golden`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.fusion import FusionRule
from repro.core.metrics import f_measure_from_rate_arrays
from repro.core.thresholds import FMeasureHeuristic, ThresholdHeuristic, UtilityHeuristic
from repro.engine import PopulationEngine, population_cache_key
from repro.engine.sharded import ShardedPopulation
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.loadgen import (
    PROFILES,
    LoadProfile,
    PhaseSpec,
    load_profile,
    plan_events,
    run_profile,
)
from repro.metrics import (
    CampaignMonitor,
    build_run_record,
    openmetrics_text,
    render_metrics_diff,
)
from repro.metrics.cli import render_run_record
from repro.stats.empirical import EmpiricalDistribution
from repro.sweeps import builtin_sweeps, scenario_spec_hash
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
from repro.temporal.statistic import drift_from_baseline, pooled_baseline_quantiles
from repro.traces.capture import CaptureSession, NetworkLocation
from repro.traces.packet import IPProtocol, Packet, TCPFlags, ip_to_int
from repro.utils.timeutils import BinSpec
from repro.utils.validation import require, require_probability
from repro.workload.enterprise import EnterprisePopulation


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
        if environment.start_time <= timestamp < environment.end_time:
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


def inject_attack(benign: TimeSeries, amounts: np.ndarray) -> InjectedSeries:
    """Overlay one feature's per-bin attack ``amounts`` onto one host's ``benign`` series.

    The reference for the batch attack builders and the measurement kernel:
    the amounts may be shorter or longer than the benign series, and only
    the overlapping prefix is injected (the paper overlays a one-week zombie
    trace onto each one-week test window).
    """
    amounts = np.asarray(amounts, dtype=float)
    length = benign.num_bins
    padded = np.zeros(length)
    usable = min(length, amounts.size)
    padded[:usable] = amounts[:usable]
    observed = TimeSeries(np.asarray(benign.values) + padded, benign.bin_spec)
    return InjectedSeries(observed=observed, benign=benign, attack_amounts=padded)


def naive_amounts(
    size: float, active_fraction: float, num_bins: int, rng: np.random.Generator
) -> np.ndarray:
    """One host's naive injection: the oracle of ``NaiveAttacker.builder``.

    ``size`` in every bin, masked by ``rng.uniform(size=num_bins) <
    active_fraction`` when ``active_fraction < 1`` (an always-on attack
    draws nothing).
    """
    amounts = np.full(num_bins, float(size))
    if active_fraction < 1.0:
        amounts = np.where(rng.uniform(size=num_bins) < active_fraction, amounts, 0.0)
    return amounts


def mimicry_amounts(values, threshold: float, evasion_probability: float) -> np.ndarray:
    """One host's mimicry injection: the oracle of ``MimicryAttacker.builder``.

    ``max(0, threshold - np.percentile(values, 100 * evasion_probability))``
    over the host's test-week ``values``, in every bin.
    """
    values = np.asarray(values, dtype=float)
    quantile = np.percentile(values, 100.0 * evasion_probability)
    return np.full(values.size, max(0.0, float(threshold - quantile)))


# ---------------------------------------------------------- threshold search
def candidate_threshold_grid(
    distribution: EmpiricalDistribution, num_candidates: int
) -> np.ndarray:
    """One distribution's candidate grid, built on its own.

    The reference for :func:`~repro.core.thresholds.candidate_threshold_grids`:
    upper-half quantiles plus headroom above the maximum, through ``np.unique``.
    """
    quantiles = np.minimum(np.linspace(0.5, 1.0, num_candidates), 1.0)
    values = np.percentile(distribution.samples, 100.0 * quantiles)
    return np.unique(np.append(values, distribution.max() * 1.01 + 1.0))


def member_rate_matrices(
    distributions: List[EmpiricalDistribution], candidates: np.ndarray, attack_sizes: np.ndarray
) -> tuple:
    """Each member's training (FP, FN) at each candidate, as two ``(candidates, members)`` arrays.

    FN is the chance of missing an attack whose size is drawn uniformly from
    ``attack_sizes`` (0 when there are none), one exceedance search per member.
    """
    fp = np.empty((candidates.size, len(distributions)))
    fn = np.zeros((candidates.size, len(distributions)))
    shifted = candidates[:, None] - attack_sizes[None, :] if attack_sizes.size else None
    for member_index, member in enumerate(distributions):
        fp[:, member_index] = exceedances(member, candidates)
        if shifted is not None:
            fn[:, member_index] = np.mean(1.0 - exceedances(member, shifted), axis=1)
    return fp, fn


def exceedances(distribution: EmpiricalDistribution, values) -> np.ndarray:
    """``P(X > v)`` for each of ``values``: the oracles' per-member exceedance search."""
    samples = distribution.samples
    counts = np.searchsorted(samples, np.asarray(values, dtype=float), side="right")
    return 1.0 - counts.astype(float) / samples.size


def fuse(rule: FusionRule, indicators: np.ndarray) -> np.ndarray:
    """Per-bin fused alarms of ``rule`` from a ``(num_features, num_bins)`` bool array.

    Row ``i`` holds feature ``i``'s per-bin alert indicator: the oracle of the
    measurement kernel's vote count.
    """
    stacked = np.atleast_2d(np.asarray(indicators, dtype=bool))
    votes = np.count_nonzero(stacked, axis=0)
    return votes >= rule.required_votes(stacked.shape[0])


def host_thresholds(assignment) -> Dict[int, float]:
    """A :class:`~repro.core.policies.ThresholdAssignment`'s hosts mapped to their thresholds.

    The dict ``compute_thresholds`` stored before assignments held one
    threshold per group: built group by group, each member mapped to its
    group's threshold.
    """
    groups, thresholds = assignment.grouping.groups, assignment.group_thresholds
    return {
        host_id: threshold
        for group, threshold in zip(groups, thresholds, strict=True)
        for host_id in group
    }


def distinct_host_configurations(per_feature: Sequence[Mapping[int, float]]) -> int:
    """Distinct per-host threshold tuples, each threshold rounded to 9 decimals, host by host."""
    hosts = per_feature[0]
    return len({tuple(round(float(t[host]), 9) for t in per_feature) for host in hosts})


def rebin(series: TimeSeries, factor: int) -> TimeSeries:
    """``series`` with every ``factor`` adjacent bins summed into one (5-min -> 15-min).

    A partial trailing group of bins is dropped.
    """
    require(factor >= 1, "factor must be >= 1")
    usable = (series.num_bins // factor) * factor
    aggregated = series.values[:usable].reshape(-1, factor).sum(axis=1)
    spec = BinSpec(width=series.bin_width * factor, origin=series.bin_spec.origin)
    return TimeSeries(aggregated, spec)


def slice_time(matrix: FeatureMatrix, start: float, end: float) -> FeatureMatrix:
    """Every feature series of ``matrix`` cut to the bins covering [start, end) in trace time."""
    require(end >= start, "end must be >= start")
    series = {}
    for feature, ts in matrix.items():
        spec = ts.bin_spec
        first = max(spec.index_of(start), 0)
        last = min(spec.index_of(end - 1e-9) + 1, ts.num_bins)
        series[feature] = TimeSeries(ts.values[first:last], spec)
    return FeatureMatrix(matrix.host_id, series)


def week_range(matrix: FeatureMatrix, start: int, end: int) -> FeatureMatrix:
    """Every feature series of ``matrix`` cut to the contiguous weeks ``[start, end)``.

    Out-of-range windows raise :class:`ValueError`, as ``TimeSeries.week_range`` does.
    """
    return FeatureMatrix(
        matrix.host_id, {feature: s.week_range(start, end) for feature, s in matrix.items()}
    )


def tail_diversity(
    population: EnterprisePopulation, feature: Feature, active_bins_only: bool = True
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Figure 1's per-host p99 and p99.9 of ``feature``, one ``np.percentile`` per host and tail.

    Each host's window is every bin of its series; with ``active_bins_only``
    its positive bins, or every bin when none is positive.
    """
    p99: Dict[int, float] = {}
    p999: Dict[int, float] = {}
    for host_id in population.host_ids:
        values = np.asarray(population.matrix(host_id).series(feature).values)
        if active_bins_only:
            active = values[values > 0]
            values = active if active.size else values
        p99[host_id] = float(np.percentile(values, 99))
        p999[host_id] = float(np.percentile(values, 99.9))
    return p99, p999


def count_hashes(monkeypatch) -> List[Path]:
    """The shard paths the population cache hashes from here on, in call order."""
    import repro.engine.cache as cache_module

    hashed: List[Path] = []
    original = cache_module._hash_file

    def counted(path):
        hashed.append(path)
        return original(path)

    monkeypatch.setattr(cache_module, "_hash_file", counted)
    return hashed


def materialize(sharded: ShardedPopulation) -> EnterprisePopulation:
    """The equivalent fully in-memory population; missing shards are built first."""
    matrices = dict(sharded.matrices())
    profiles = {host_id: sharded.profile(host_id) for host_id in sharded.host_ids}
    return EnterprisePopulation(config=sharded.config, profiles=profiles, matrices=matrices)


def threshold_for_group(heuristic: ThresholdHeuristic, distributions) -> float:
    """One group's threshold, searched for that group alone.

    The reference for ``thresholds_for_groups``: the utility and F-measure
    heuristics score every member at every candidate of the group's pooled
    grid and take the first maximum of the C-contiguous member mean; the
    other heuristics pool the members.
    """
    require(len(distributions) > 0, "group must contain at least one distribution")
    pooled = EmpiricalDistribution.pooled(list(distributions))
    if not isinstance(heuristic, (UtilityHeuristic, FMeasureHeuristic)):
        return float(heuristic.threshold(pooled))
    candidates = candidate_threshold_grid(pooled, heuristic.num_candidates)
    sizes = np.asarray(heuristic.attack_sizes, dtype=float)
    fp, fn = member_rate_matrices(list(distributions), candidates, sizes)
    if isinstance(heuristic, UtilityHeuristic):
        scores = 1.0 - (heuristic.weight * fn + (1.0 - heuristic.weight) * fp)
    else:
        scores = f_measure_from_rate_arrays(fp, fn, heuristic.attack_prevalence)
    return float(candidates[int(np.argmax(np.mean(scores, axis=1)))])


def precision_recall(
    true_positives: float, false_positives: float, false_negatives: float
) -> Tuple[float, float]:
    """Precision and recall from detection counts.

    Degenerate cases follow the usual conventions: precision is 1.0 when
    nothing was flagged, recall is 1.0 when there was nothing to detect.
    """
    require(true_positives >= 0, "true_positives must be non-negative")
    require(false_positives >= 0, "false_positives must be non-negative")
    require(false_negatives >= 0, "false_negatives must be non-negative")
    flagged = true_positives + false_positives
    actual = true_positives + false_negatives
    precision = true_positives / flagged if flagged > 0 else 1.0
    recall = true_positives / actual if actual > 0 else 1.0
    return precision, recall


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0.0 when both are zero)."""
    require_probability(precision, "precision")
    require_probability(recall, "recall")
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f_measure_from_rates(
    false_positive_rate: float,
    false_negative_rate: float,
    attack_prevalence: float,
) -> float:
    """One operating point's F-measure, the per-host form of ``f_measure_from_rate_arrays``.

    Converts the rate-based operating point into expected per-bin counts using
    ``attack_prevalence`` (the fraction of bins containing attack traffic) and
    then applies the usual precision/recall definitions.
    """
    require_probability(false_positive_rate, "false_positive_rate")
    require_probability(false_negative_rate, "false_negative_rate")
    require_probability(attack_prevalence, "attack_prevalence")
    true_positives = attack_prevalence * (1.0 - false_negative_rate)
    false_negatives = attack_prevalence * false_negative_rate
    false_positives = (1.0 - attack_prevalence) * false_positive_rate
    precision, recall = precision_recall(true_positives, false_positives, false_negatives)
    return f_measure(precision, recall)


def population_drift_statistic(
    matrices: Mapping[int, FeatureMatrix],
    features: Sequence[Feature],
    baseline_weeks: Tuple[int, int],
    week: int,
) -> float:
    """The drift statistic of completed ``week`` against the ``baseline_weeks`` window.

    What a drift-triggered timeline computes: the pooled baseline of the
    training window, then the week's mean absolute log10 quantile shift.
    """
    baseline = pooled_baseline_quantiles(matrices, features, baseline_weeks)
    return drift_from_baseline(matrices, baseline, week)


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


def specs_golden() -> Dict[str, Any]:
    """The payload of ``tests/data/golden_specs.json``: what the specs store and hash.

    Every packaged sweep's TOML text (one list of lines each), every expanded
    scenario's ``scenario_spec_hash`` (the result cache's key), the
    ``population_cache_key`` of each distinct population those scenarios
    generate (keyed by the first scenario that uses it) and every packaged
    load profile's planned event-stream digest.
    """
    sweeps = builtin_sweeps()
    scenarios = [scenario for sweep in sweeps.values() for scenario in sweep.expand()]
    population_keys: Dict[str, str] = {}
    for scenario in scenarios:
        key = population_cache_key(scenario.population.to_config())
        if key not in population_keys.values():
            population_keys[scenario.name] = key
    return {
        "sweep_toml": {name: sweep.to_toml().split("\n") for name, sweep in sweeps.items()},
        "scenario_spec_hashes": {
            scenario.name: scenario_spec_hash(scenario) for scenario in scenarios
        },
        "population_cache_keys": population_keys,
        "plan_sha256": {name: plan_sha256(profile) for name, profile in PROFILES.items()},
    }
