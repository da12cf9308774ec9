"""Tests for :mod:`repro.loadgen`: profiles, planning, metrics, orchestration.

The determinism contract is the headline: the same profile and seed must
produce a bit-identical event stream, and — under an injected fake clock and
timestamp — bit-identical report and BENCH JSON payloads.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import FakeClock, tiny_profile, tiny_soak_profile
from repro.engine import PopulationEngine
from repro.loadgen import (
    PROFILE_NAMES,
    PROFILES,
    HotKeySelector,
    LoadProfile,
    PhaseSpec,
    ZipfSelector,
    bench_stats,
    corrupt_matrix,
    load_profile,
    plan_events,
    run_profile,
)
from repro.metrics import MetricsHistory, engine_cache_stats
from repro.sweeps.cli import main as cli_main
from repro.sweeps.spec import PopulationSpec
from repro.telemetry import EVALUATION_SPANS, TelemetryRecorder, use_recorder
from repro.utils.validation import ValidationError

SEED_BENCH = Path(__file__).resolve().parents[1] / "BENCH_20260727_seed.json"


def fresh_engine() -> PopulationEngine:
    return PopulationEngine(workers=1, use_cache=False)


# --------------------------------------------------------------------- skew
class TestSelectors:
    def test_zipf_weights_are_a_decreasing_distribution(self):
        selector = ZipfSelector(tuple(range(10)), exponent=1.1)
        weights = selector.weights
        assert weights.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:], strict=False))

    def test_zipf_zero_exponent_is_uniform(self):
        selector = ZipfSelector(tuple(range(5)), exponent=0.0)
        assert np.allclose(selector.weights, 0.2)

    def test_zipf_sample_is_distinct_and_in_range(self):
        selector = ZipfSelector(tuple(range(20)), exponent=1.1)
        rng = np.random.default_rng(0)
        sample = selector.sample(8, rng)
        assert len(sample) == 8
        assert len(set(sample)) == 8
        assert set(sample) <= set(range(20))

    def test_hot_key_mass_concentrates_on_hot_pool(self):
        selector = HotKeySelector(("a", "b", "c", "d"), hot_count=2, hot_probability=0.8)
        weights = selector.weights
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] + weights[1] == pytest.approx(0.8)
        assert weights[0] == pytest.approx(weights[1])

    def test_hot_key_sample_distinct(self):
        selector = HotKeySelector(("a", "b", "c", "d"), hot_count=1, hot_probability=0.9)
        rng = np.random.default_rng(1)
        sample = selector.sample(3, rng)
        assert len(set(sample)) == 3


# ----------------------------------------------------------------- profiles
class TestProfiles:
    def test_packaged_tiers_exist_in_ladder_order(self):
        assert PROFILE_NAMES == ("demo", "standard", "peak", "stress", "soak")

    def test_load_profile_rejects_unknown_tier(self):
        with pytest.raises(ValidationError, match="unknown load profile"):
            load_profile("warp")

    def test_total_events_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="phases sum to"):
            tiny = tiny_profile()
            LoadProfile(
                name="bad",
                description="mismatched totals",
                num_hosts=8,
                num_weeks=2,
                phases=tiny.phases,
                total_events=tiny.total_events + 1,
            )

    def test_duplicate_phase_names_rejected(self):
        ramp = tiny_profile().phases[0]
        with pytest.raises(ValidationError, match="phase names must be unique"):
            LoadProfile(
                name="bad-names",
                description="one phase name twice",
                num_hosts=8,
                num_weeks=2,
                phases=(ramp, ramp),
                total_events=2 * ramp.num_events,
            )

    def test_soak_phase_needs_three_weeks(self):
        with pytest.raises(ValidationError, match="soak phases need"):
            LoadProfile(
                name="bad-soak",
                description="soak without a timeline",
                num_hosts=8,
                num_weeks=2,
                phases=(PhaseSpec(name="soak", kind="soak", num_events=1),),
                total_events=1,
            )

    def test_failure_phase_needs_some_failure(self):
        with pytest.raises(ValidationError, match="failure injection"):
            PhaseSpec(name="f", kind="failure-injection", num_events=1)

    @given(st.sampled_from(PROFILE_NAMES))
    def test_phase_totals_sum_to_declared_total(self, name):
        profile = load_profile(name)
        assert profile.total_events == sum(p.num_events for p in profile.phases)
        events = plan_events(profile)
        assert len(events) == profile.total_events

    def test_profile_to_dict_round_trips_through_json(self):
        payload = json.dumps(PROFILES["peak"].to_dict(), sort_keys=True)
        assert json.loads(payload)["total_events"] == 29


# ----------------------------------------------------------------- planning
class TestPlanning:
    def test_plan_is_bit_identical_per_seed(self):
        first = [event.to_dict() for event in plan_events(tiny_profile(seed=7))]
        second = [event.to_dict() for event in plan_events(tiny_profile(seed=7))]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_plan_varies_with_seed(self):
        first = [event.to_dict() for event in plan_events(tiny_profile(seed=7))]
        second = [event.to_dict() for event in plan_events(tiny_profile(seed=8))]
        assert json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True)

    def test_event_stream_shape(self):
        profile = load_profile("demo")
        events = plan_events(profile)
        assert [event.index for event in events] == list(range(profile.total_events))
        assert events[0].scenario.name == "demo/steady-ramp/000"
        by_phase = {name: 0 for name in profile.phase_names}
        for event in events:
            by_phase[event.phase] += 1
        assert by_phase == {
            phase.name: phase.num_events for phase in profile.phases
        }

    def test_burst_targets_full_population(self):
        profile = load_profile("demo")
        for event in plan_events(profile):
            if event.kind == "burst":
                assert event.target_hosts == tuple(range(profile.num_hosts))

    def test_failure_injection_partitions_targets(self):
        profile = tiny_profile()
        for event in plan_events(profile):
            if event.kind != "failure-injection":
                assert event.dropped_hosts == ()
                assert event.corrupted_hosts == ()
                continue
            targets = set(event.target_hosts)
            dropped = set(event.dropped_hosts)
            corrupted = set(event.corrupted_hosts)
            assert dropped <= targets
            assert corrupted <= targets
            assert not dropped & corrupted
            assert len(dropped) == round(0.25 * len(targets))
            assert len(corrupted) == round(0.25 * len(targets))
            assert event.corrupt_bins_fraction == 0.25

    def test_soak_event_carries_drift_and_schedule(self):
        events = plan_events(tiny_soak_profile())
        scenario = events[0].scenario
        assert scenario.attack.kind == "mimicry-vs-schedule"
        assert scenario.evaluation.schedule.kind == "drift-triggered"
        assert scenario.population.drift.kind == "seasonal+flash-crowd"


# ------------------------------------------------------------------ metrics
class TestMetrics:
    def test_bench_stats_matches_seed_trajectory_schema(self):
        seed_stats = json.loads(SEED_BENCH.read_text())["benchmarks"][0]["stats"]
        stats = bench_stats((0.1, 0.2, 0.3, 0.4))
        assert set(stats) == set(seed_stats)

    def test_bench_stats_values(self):
        stats = bench_stats((0.1, 0.2, 0.3, 0.4))
        assert stats["min"] == pytest.approx(0.1)
        assert stats["max"] == pytest.approx(0.4)
        assert stats["median"] == pytest.approx(0.25)
        assert stats["rounds"] == 4
        assert stats["total"] == pytest.approx(1.0)
        assert stats["ops"] == pytest.approx(1.0 / 0.25)
        assert stats["data"] == [0.1, 0.2, 0.3, 0.4]

    def test_bench_stats_requires_samples(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            bench_stats(())

    def test_corrupt_matrix_zeroes_same_bins_across_features(self):
        population = fresh_engine().generate(
            PopulationSpec(num_hosts=2, num_weeks=2, seed=3).to_config()
        )
        matrix = population.matrix(0)
        corrupted = corrupt_matrix(matrix, 0.25, np.random.default_rng(0))
        count = round(0.25 * matrix.num_bins)
        dead = np.random.default_rng(0).choice(matrix.num_bins, size=count, replace=False)
        mask = np.ones(matrix.num_bins)
        mask[dead] = 0.0
        # The same bins go dark on every feature (a host-level sensor fault).
        for feature, series in matrix.items():
            assert np.array_equal(
                np.asarray(corrupted[feature].values), np.asarray(series.values) * mask
            )

    def test_corrupt_matrix_zero_fraction_is_identity(self):
        population = fresh_engine().generate(
            PopulationSpec(num_hosts=2, num_weeks=2, seed=3).to_config()
        )
        matrix = population.matrix(0)
        assert corrupt_matrix(matrix, 0.0, np.random.default_rng(0)) is matrix


# ------------------------------------------------------------- orchestration
class TestOrchestration:
    def test_fake_clock_report_is_bit_identical(self):
        profile = tiny_profile()
        timestamp = "2026-08-07T00:00:00+00:00"
        payloads = []
        bench_payloads = []
        for _ in range(2):
            report = run_profile(
                profile,
                engine=fresh_engine(),
                clock=FakeClock(),
                timestamp=timestamp,
            )
            payloads.append(json.dumps(report.to_dict(), sort_keys=True))
            bench_payloads.append(
                json.dumps(
                    report.to_bench_json(machine_info={"node": "test"}),
                    sort_keys=True,
                )
            )
        assert payloads[0] == payloads[1]
        assert bench_payloads[0] == bench_payloads[1]

    def test_fake_clock_latencies_are_exact(self):
        report = run_profile(
            tiny_profile(),
            engine=fresh_engine(),
            clock=FakeClock(),
            timestamp="t",
        )
        assert report.total_events == 4
        for phase in report.phases:
            # Each direct event brackets exactly two clock ticks around two
            # intermediate reads (matrices + components), so every sample is
            # a whole number of fake-clock seconds.
            assert all(latency >= 1.0 for latency in phase.latencies)
            assert phase.p50 <= phase.p95 <= phase.p99

    def test_soak_phase_records_one_sample_per_deployed_week(self):
        profile = tiny_soak_profile()
        report = run_profile(profile, engine=fresh_engine(), timestamp="t")
        (phase,) = report.phases
        assert phase.num_events == 1
        # 3-week population: week 0 trains, weeks 1..2 deploy.
        assert len(phase.latencies) == 2
        assert phase.host_weeks == pytest.approx(2 * profile.num_hosts)

    def test_bench_json_entries_follow_trajectory_schema(self):
        report = run_profile(
            tiny_profile(),
            engine=fresh_engine(),
            clock=FakeClock(),
            timestamp="2026-08-07T00:00:00+00:00",
        )
        payload = report.to_bench_json(machine_info={"node": "test"})
        seed_payload = json.loads(SEED_BENCH.read_text())
        assert set(payload) == set(seed_payload)
        names = [entry["name"] for entry in payload["benchmarks"]]
        assert names == ["loadgen_tiny_ramp", "loadgen_tiny_faults"]
        seed_entry_keys = set(seed_payload["benchmarks"][0])
        for entry in payload["benchmarks"]:
            assert set(entry) <= seed_entry_keys
            assert entry["group"] == "loadgen"
            assert entry["extra_info"]["scenarios_per_second"] > 0.0

    def test_dropped_hosts_shrink_the_evaluated_population(self):
        profile = tiny_profile()
        report = run_profile(
            profile, engine=fresh_engine(), clock=FakeClock(), timestamp="t"
        )
        faults = next(phase for phase in report.phases if phase.name == "faults")
        events = [e for e in plan_events(profile) if e.phase == "faults"]
        expected = sum(
            (len(e.target_hosts) - len(e.dropped_hosts)) * profile.num_weeks
            for e in events
        )
        assert faults.host_weeks == pytest.approx(expected)


# ------------------------------------------------- phase metrics from spans
def tiny_burst_profile() -> LoadProfile:
    """A one-phase burst profile: every sample is a ``sweeps.scenario`` span."""
    return LoadProfile(
        name="tiny-burst",
        description="test burst profile",
        num_hosts=8,
        num_weeks=2,
        phases=(PhaseSpec(name="burst", kind="burst", num_events=3),),
        total_events=3,
    )


def planned_host_weeks(profile: LoadProfile, phase: str) -> float:
    """Host-weeks a direct or burst phase's planned events evaluate."""
    events = [event for event in plan_events(profile) if event.phase == phase]
    if events[0].kind == "burst":
        return float(len(events) * profile.num_hosts * profile.num_weeks)
    return float(
        sum(len(e.target_hosts) - len(e.dropped_hosts) for e in events) * profile.num_weeks
    )


def phase_spans(recorder: TelemetryRecorder):
    """``{phase name: [evaluation spans under it, in end order]}`` of a trace."""
    spans = sorted(recorder.spans, key=lambda span: span.span_id)
    phase_of = {}
    for span in spans:
        if span.name == "loadgen.phase":
            phase_of[span.span_id] = span.attributes["phase"]
        elif span.parent_id in phase_of:
            phase_of[span.span_id] = phase_of[span.parent_id]
    found = {}
    for span in recorder.spans:
        if span.name in EVALUATION_SPANS and span.span_id in phase_of:
            found.setdefault(phase_of[span.span_id], []).append(span)
    return found


class TestPhaseMetricsFromSpans:
    def test_local_fake_clock_recorder_samples_every_planned_event(self):
        profile = load_profile("demo")
        report = run_profile(profile, engine=fresh_engine(), clock=FakeClock(), timestamp="t")
        for phase in report.phases:
            planned = [e for e in plan_events(profile) if e.phase == phase.name]
            assert phase.num_events == len(planned)
            assert len(phase.latencies) == len(planned)
            assert phase.host_weeks == planned_host_weeks(profile, phase.name)

    def test_ambient_trace_recorder_samples_are_its_evaluation_spans(self):
        profile = load_profile("demo")
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            report = run_profile(profile, engine=fresh_engine(), timestamp="t")
        local_run = run_profile(profile, engine=fresh_engine(), clock=FakeClock(), timestamp="t")
        spans = phase_spans(recorder)
        assert set(spans) == {phase.name for phase in report.phases}
        for phase, local in zip(report.phases, local_run.phases, strict=True):
            assert phase.latencies == tuple(span.duration for span in spans[phase.name])
            assert len(phase.latencies) == phase.num_events == local.num_events
            assert phase.host_weeks == local.host_weeks
        # The run recorded into the ambient recorder: its counters are the report's.
        assert report.engine_cache == engine_cache_stats(recorder.counters)

    def test_two_worker_burst_samples_the_merged_worker_spans(self, tmp_path):
        profile = tiny_burst_profile()
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        serial = run_profile(profile, engine=engine, clock=FakeClock(), timestamp="t")
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            report = run_profile(profile, engine=engine, workers=2, timestamp="t")
        (phase,) = report.phases
        (spans,) = phase_spans(recorder).values()
        # Every sample arrived from a pool worker through the recorder's merge.
        assert [span.name for span in spans] == ["sweeps.scenario"] * 3
        assert all(span.process.startswith("worker-") for span in spans)
        assert phase.latencies == tuple(span.duration for span in spans)
        assert len(phase.latencies) == phase.num_events == serial.phases[0].num_events == 3
        assert phase.host_weeks == serial.phases[0].host_weeks == planned_host_weeks(
            profile, "burst"
        )


# ---------------------------------------------------------------------- CLI
class TestLoadgenCli:
    def test_list_shows_the_tier_ladder(self, capsys):
        assert cli_main(["loadgen", "list"]) == 0
        out = capsys.readouterr().out
        for name in PROFILE_NAMES:
            assert name in out

    def test_run_demo_writes_report_and_bench_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        bench_path = tmp_path / "bench.json"
        code = cli_main(
            [
                "loadgen",
                "run",
                "demo",
                "--no-cache",
                "--json",
                str(report_path),
                "--bench-json",
                str(bench_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "host-weeks/s" in out
        payload = json.loads(report_path.read_text())
        assert payload["totals"]["events"] == PROFILES["demo"].total_events
        assert {phase["name"] for phase in payload["phases"]} == set(
            PROFILES["demo"].phase_names
        )
        for phase in payload["phases"]:
            for quantile in ("p50", "p95", "p99"):
                assert phase["latency_seconds"][quantile] >= 0.0
        bench = json.loads(bench_path.read_text())
        assert bench["version"] == "5.2.3"
        assert len(bench["benchmarks"]) == len(PROFILES["demo"].phases)

        # The saved report renders back through `repro loadgen report`.
        assert cli_main(["loadgen", "report", str(report_path)]) == 0
        assert "loadgen demo" in capsys.readouterr().out

    @pytest.mark.parametrize("cache", ["no-cache", "cache-dir"])
    def test_report_engine_cache_equals_the_metrics_record(self, tmp_path, capsys, cache):
        report_path = tmp_path / "report.json"
        history_path = tmp_path / "metrics.jsonl"
        engine_flags = (
            ["--no-cache"] if cache == "no-cache" else ["--cache-dir", str(tmp_path / "cache")]
        )
        argv = ["loadgen", "run", "demo", "--json", str(report_path)]
        code = cli_main([*argv, "--metrics", str(history_path), *engine_flags])
        assert code == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        (record,) = MetricsHistory(history_path).records()
        assert report["engine_cache"] == record.engine_cache
        if cache == "no-cache":
            # No cache, no cache reads: the run counts neither hits nor misses.
            assert record.engine_cache == {"hits": 0, "misses": 0, "hit_ratio": 0.0}
        else:
            # The orchestrator generates the one demo population (a miss) and
            # the burst's sweep runner reloads it (a hit).
            assert record.engine_cache == {"hits": 1, "misses": 1, "hit_ratio": 0.5}

    def test_run_monitor_flag_renders_to_stderr(self, capsys):
        assert cli_main(["loadgen", "run", "demo", "--no-cache", "--monitor"]) == 0
        captured = capsys.readouterr()
        assert "[monitor]" in captured.err
        assert "host-weeks/s" in captured.out

    def test_report_rejects_missing_and_foreign_files(self, tmp_path, capsys):
        assert cli_main(["loadgen", "report", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err
        foreign = tmp_path / "foreign.json"
        foreign.write_text("{}")
        assert cli_main(["loadgen", "report", str(foreign)]) == 1
        assert "not a loadgen report" in capsys.readouterr().err
