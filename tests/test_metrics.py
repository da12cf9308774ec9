"""Tests for :mod:`repro.metrics`: history, gauges, exports, monitor, diff.

The contracts pinned here: a history record round-trips write -> read ->
render bit for bit; the OpenMetrics exposition satisfies its own strict
parser (and the parser rejects the malformed cases scrapers reject); the
``--monitor`` status stream is bit-identical under a fake clock and fake RSS
probe; and ``metrics diff`` attributes a synthetic 2x slowdown to exactly
the span where it was injected.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.engine import PopulationEngine
from repro.engine.cache import PopulationCache
from repro.metrics import (
    METRICS_SCHEMA_VERSION,
    CampaignMonitor,
    MetricsHistory,
    ResourceSampler,
    RunRecord,
    annotate_run,
    build_run_record,
    collect_annotations,
    diff_summaries,
    export_record,
    openmetrics_text,
    parse_openmetrics,
    render_metrics_diff,
)
from repro.metrics.cli import render_run_record
from repro.sweeps.cli import main
from repro.telemetry import (
    TelemetryRecorder,
    add_count,
    monotonic_now,
    set_gauge,
    summary_payload,
    trace_span,
    use_recorder,
)
from repro.utils.resources import peak_rss_bytes, peak_rss_mb
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig


def fake_clock(step=1.0, start=0.0):
    """A deterministic monotonic clock advancing ``step`` per call."""
    state = {"now": start - step}

    def tick():
        state["now"] += step
        return state["now"]

    return tick


def drive_workload(recorder, scenarios=4, measure_ticks=2):
    """A deterministic synthetic sweep; ``measure_ticks`` inflates core.measure."""
    with use_recorder(recorder):
        with trace_span("sweeps.run", sweep="demo"):
            with trace_span("sweeps.populations"):
                add_count("engine.cache.hits", 3)
                add_count("engine.cache.misses", 1)
            for index in range(scenarios):
                with trace_span("sweeps.scenario", scenario=f"s{index}"):
                    with trace_span("core.measure"):
                        for _ in range(measure_ticks):
                            monotonic_now()
                    add_count("sweeps.scenarios_evaluated")
            set_gauge("engine.shards_resident", 2.0)


def make_record(measure_ticks=2, run_id="run-a", wall_clock=None):
    """A fully deterministic history record from the synthetic workload."""
    recorder = TelemetryRecorder(clock=fake_clock())
    started = recorder.clock()
    drive_workload(recorder, measure_ticks=measure_ticks)
    elapsed = recorder.clock() - started
    return build_run_record(
        recorder.snapshot(),
        command="sweep run",
        wall_clock_seconds=wall_clock if wall_clock is not None else elapsed,
        annotations={"run_id": run_id, "sweep": "demo"},
        timestamp="2026-08-07T00:00:00+00:00",
        rss_probe=lambda: 64 * 1024 * 1024,
    )


# ---------------------------------------------------------------- the record
class TestRunRecord:
    def test_derived_fields(self):
        record = make_record()
        assert record.run_id == "run-a"
        assert record.engine_cache == {"hits": 3, "misses": 1, "hit_ratio": 0.75}
        assert record.counters["sweeps.scenarios_evaluated"] == 4
        assert record.gauges["process.rss_bytes"] == 64 * 1024 * 1024
        assert record.peak_rss_bytes == 64 * 1024 * 1024
        assert record.shards["resident"] == 2.0
        assert record.annotations == {"sweep": "demo"}  # run_id promoted out
        assert record.summary[0]["name"] == "sweeps.run"

    def test_round_trip_write_read_render(self, tmp_path):
        history = MetricsHistory(tmp_path / "metrics.jsonl")
        record = make_record()
        history.append(record)
        history.append(make_record(run_id="run-b"))
        loaded = history.records()
        assert [r.run_id for r in loaded] == ["run-a", "run-b"]
        assert loaded[0].to_dict() == record.to_dict()
        assert render_run_record(loaded[0]) == render_run_record(record)
        rendered = render_run_record(loaded[0])
        assert "run run-a — sweep run" in rendered
        assert "sweeps.scenario" in rendered
        assert "engine.shards_resident" in rendered

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        payload = make_record().to_dict()
        payload["schema"] = METRICS_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValidationError, match="newer than this reader"):
            MetricsHistory(path).records()

    def test_corrupt_line_is_rejected_with_location(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValidationError, match="metrics.jsonl:1"):
            MetricsHistory(path).records()

    def test_torn_final_line_skipped_then_cut_by_next_append(self, tmp_path, jsonl_warnings):
        history = MetricsHistory(tmp_path / "metrics.jsonl")
        for run_id in ("run-a", "run-b", "run-c"):
            history.append(make_record(run_id=run_id))
        text = history.path.read_text()
        # Keep only the first 40 characters of the last record, newline lost.
        history.path.write_text(text[: text.rindex("\n", 0, -1) + 40])
        assert [record.run_id for record in history.records()] == ["run-a", "run-b"]
        history.append(make_record(run_id="run-d"))
        assert [record.run_id for record in history.records()] == ["run-a", "run-b", "run-d"]
        assert jsonl_warnings == [
            f"{history.path}:3: skipping torn final line (interrupted append)",
            f"{history.path}:3: dropping torn final line (interrupted append)",
        ]

    def test_select_by_run_id_and_index(self, tmp_path):
        history = MetricsHistory(tmp_path / "metrics.jsonl")
        history.append(make_record(run_id="run-a"))
        history.append(make_record(run_id="run-b"))
        assert history.select("run-a").run_id == "run-a"
        assert history.select("-1").run_id == "run-b"
        assert history.select("0").run_id == "run-a"
        with pytest.raises(ValidationError, match="no run 'nope'"):
            history.select("nope")
        with pytest.raises(ValidationError, match="out of range"):
            history.select("7")

    def test_select_on_empty_history_explains(self, tmp_path):
        with pytest.raises(ValidationError, match="is empty"):
            MetricsHistory(tmp_path / "missing.jsonl").select("-1")

    def test_annotate_without_collector_is_a_noop(self):
        annotate_run(run_id="ignored")  # must not raise
        with collect_annotations() as notes:
            annotate_run(sweep="demo", hosts=16)
        assert notes == {"sweep": "demo", "hosts": 16}

    def test_summary_matches_trace_report_shape(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        drive_workload(recorder)
        record = build_run_record(
            recorder.snapshot(),
            command="x",
            wall_clock_seconds=1.0,
            timestamp="t",
            rss_probe=lambda: 1,
        )
        assert record.summary == summary_payload(recorder.snapshot())["summary"]


# ------------------------------------------------------------- OpenMetrics
class TestOpenMetrics:
    def test_export_satisfies_the_parser(self):
        record = make_record()
        text = openmetrics_text(record)
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)
        counter = families["repro_sweeps_scenarios_evaluated"]
        assert counter["type"] == "counter"
        assert counter["samples"] == [("repro_sweeps_scenarios_evaluated_total", {}, 4.0)]
        gauge = families["repro_engine_shards_resident"]
        assert gauge["samples"][0][2] == 2.0
        span_paths = {
            labels["path"]
            for _, labels, _ in families["repro_span_self_seconds"]["samples"]
        }
        assert "sweeps.run/sweeps.scenario/core.measure" in span_paths

    def test_label_values_are_escaped(self):
        record = make_record(run_id='we"ird\\id')
        families = parse_openmetrics(openmetrics_text(record))
        (sample,) = families["repro_run"]["samples"]
        assert sample[1]["run_id"] == 'we\\"ird\\\\id'

    def test_parser_rejects_missing_eof(self):
        with pytest.raises(ValidationError, match="EOF"):
            parse_openmetrics("# TYPE a gauge\na 1\n")

    def test_parser_rejects_counter_without_total_suffix(self):
        with pytest.raises(ValidationError, match="_total"):
            parse_openmetrics("# TYPE repro_x counter\nrepro_x 1\n# EOF")

    def test_parser_rejects_undeclared_samples(self):
        with pytest.raises(ValidationError, match="no preceding TYPE"):
            parse_openmetrics("mystery_metric 1\n# EOF")

    def test_parser_rejects_non_float_values(self):
        with pytest.raises(ValidationError, match="not a float"):
            parse_openmetrics("# TYPE a gauge\na banana\n# EOF")

    def test_parser_rejects_malformed_labels(self):
        with pytest.raises(ValidationError, match="malformed label"):
            parse_openmetrics('# TYPE a gauge\na{=bad} 1\n# EOF')

    def test_json_export_round_trips(self):
        record = make_record()
        payload = json.loads(export_record(record, "json"))
        assert RunRecord.from_dict(payload).to_dict() == record.to_dict()

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown export format"):
            export_record(make_record(), "xml")


# -------------------------------------------------------------- the sampler
class TestResourceSampler:
    def test_sample_publishes_the_gauge(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder):
            sampler = ResourceSampler(probe=lambda: 1234, clock=recorder.clock)
            assert sampler.sample() == 1234.0
        assert recorder.gauges["process.rss_bytes"] == 1234.0

    def test_maybe_sample_throttles_by_interval(self):
        recorder = TelemetryRecorder(clock=fake_clock(step=1.0))
        with use_recorder(recorder):
            sampler = ResourceSampler(
                probe=lambda: 5, clock=recorder.clock, interval=10.0
            )
            assert sampler.maybe_sample() == 5.0
            assert sampler.maybe_sample() is None  # clock advanced only 1s
        assert recorder.gauges["process.rss_bytes"] == 5.0

    def test_real_probe_reports_positive_rss(self):
        assert peak_rss_bytes() > 0
        assert peak_rss_mb() == pytest.approx(peak_rss_bytes() / (1024.0 * 1024.0))


# -------------------------------------------------------------- the monitor
class TestCampaignMonitor:
    def run_monitored(self, interval=0.0):
        recorder = TelemetryRecorder(clock=fake_clock())
        stream = io.StringIO()
        monitor = CampaignMonitor(
            recorder, stream=stream, interval=interval, rss_probe=lambda: 96 * 1024 * 1024
        )
        drive_workload(recorder)
        monitor.close()
        return stream.getvalue()

    def test_output_is_bit_identical_under_fake_clock(self):
        first = self.run_monitored()
        second = self.run_monitored()
        assert first == second
        assert first  # something was rendered

    def test_status_line_content(self):
        output = self.run_monitored()
        final = output.rstrip("\n").split("\r")[-1].rstrip()
        assert final.startswith("[monitor] phase=evaluate 4 done ")
        assert "p50=" in final and "p95=" in final
        assert "cache=75%" in final
        assert "shards=2" in final
        assert "rss=96.0MiB" in final
        assert output.endswith("\n")  # close() terminates the line

    def test_interval_throttles_renders(self):
        eager = self.run_monitored(interval=0.0).count("\r")
        throttled = self.run_monitored(interval=100.0).count("\r")
        assert throttled < eager
        assert throttled >= 2  # first render + final render

    def test_close_is_idempotent_and_unsubscribes(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        stream = io.StringIO()
        monitor = CampaignMonitor(recorder, stream=stream, rss_probe=lambda: 1)
        monitor.close()
        monitor.close()
        size = len(stream.getvalue())
        with use_recorder(recorder), trace_span("sweeps.scenario"):
            pass
        assert len(stream.getvalue()) == size  # no rendering after close

    def test_phase_tracks_loadgen_phase_attribute(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        stream = io.StringIO()
        monitor = CampaignMonitor(recorder, stream=stream, rss_probe=lambda: 1)
        with use_recorder(recorder):
            with trace_span("loadgen.phase", phase="p1", kind="burst"):
                pass
        monitor.close()
        assert "phase=burst" in stream.getvalue()


# ------------------------------------------------------------------ the diff
class TestMetricsDiff:
    def test_attributes_synthetic_slowdown_to_the_injected_span(self):
        # core.measure burns 2 ticks in A and 5 in B: with one tick per clock
        # call its per-call duration goes 3s -> 6s, a 2x slowdown injected
        # into exactly one span of four scenarios.
        record_a = make_record(measure_ticks=2, run_id="run-a")
        record_b = make_record(measure_ticks=5, run_id="run-b")
        deltas = diff_summaries(record_a.summary, record_b.summary)
        culprit = deltas[0]
        assert culprit.path == "sweeps.run/sweeps.scenario/core.measure"
        assert culprit.self_delta == pytest.approx(12.0)  # 4 scenarios x 3s
        assert culprit.ratio == pytest.approx(2.0)
        # Enclosing spans absorbed no self time: the attribution localises.
        by_path = {delta.path: delta for delta in deltas}
        assert by_path["sweeps.run/sweeps.scenario"].self_delta == pytest.approx(0.0)

    def test_render_names_the_culprit_and_wall_share(self):
        record_a = make_record(measure_ticks=2, run_id="run-a")
        record_b = make_record(measure_ticks=5, run_id="run-b")
        rendered = render_metrics_diff(record_a, record_b)
        assert "largest self-time regression: sweeps.run/sweeps.scenario/core.measure" in rendered
        assert "wall clock:" in rendered
        assert "run-a vs run-b" in rendered

    def test_paths_unique_to_one_run_still_appear(self):
        record_a = make_record(run_id="run-a")
        record_b = RunRecord(
            run_id="run-b",
            command="sweep run",
            timestamp="t",
            wall_clock_seconds=1.0,
            summary=[],
        )
        deltas = diff_summaries(record_a.summary, record_b.summary)
        assert all(delta.total_b == 0.0 for delta in deltas)
        assert any(delta.path == "sweeps.run" for delta in deltas)


# ------------------------------------------------------- engine gauge wiring
class TestEngineGauges:
    def test_sharded_population_publishes_residency_gauges(self, tmp_path):
        recorder = TelemetryRecorder()
        config = EnterpriseConfig(num_hosts=24, num_weeks=1, seed=11)
        with use_recorder(recorder):
            engine = PopulationEngine(workers=1, cache_dir=tmp_path)
            sharded = engine.generate_sharded(
                config, hosts_per_shard=8, max_resident_shards=2
            )
            for host_id in sharded.host_ids:
                sharded.matrix(host_id)
        gauges = recorder.gauges
        assert gauges["engine.shards_resident"] == 2.0  # LRU bound respected
        expected_bytes = 2 * 8 * len(sharded.matrix(0).features) * sharded.matrix(0).num_bins * 8
        assert gauges["engine.shard_bytes_resident"] == expected_bytes
        assert recorder.counters["engine.shards_loaded"] >= 3

    def test_population_cache_publishes_entry_count(self, tmp_path):
        recorder = TelemetryRecorder()
        config = EnterpriseConfig(num_hosts=6, num_weeks=1, seed=3)
        with use_recorder(recorder):
            engine = PopulationEngine(workers=1, cache_dir=tmp_path)
            engine.generate(config)
        assert recorder.gauges["engine.cache_entries"] == 1.0
        cache = PopulationCache(tmp_path)
        assert cache.entry_count() == 1
        with use_recorder(recorder):
            assert cache.clear() == 1
        assert recorder.gauges["engine.cache_entries"] == 0.0


# -------------------------------------------------------------------- the CLI
class TestMetricsCli:
    def run_sweep(self, tmp_path, history, extra=()):
        return main(
            [
                "sweep",
                "run",
                "policy-grid",
                "--hosts",
                "8",
                "--weeks",
                "2",
                "--store",
                str(tmp_path / "store.jsonl"),
                "--metrics",
                str(history),
                "--no-cache",
                "--quiet",
                *extra,
            ]
        )

    def test_sweep_run_appends_an_annotated_record(self, tmp_path, capsys):
        history_path = tmp_path / "metrics.jsonl"
        assert self.run_sweep(tmp_path, history_path) == 0
        assert "metrics appended to" in capsys.readouterr().out
        (record,) = MetricsHistory(history_path).records()
        assert record.command == "sweep run"
        assert record.run_id.startswith("policy-grid-")
        assert record.annotations["sweep"] == "policy-grid"
        assert len(record.annotations["spec_hashes"]) == record.annotations["scenarios"]
        assert record.counters["sweeps.scenarios_evaluated"] == 12
        assert record.wall_clock_seconds > 0.0
        assert record.peak_rss_bytes > 0
        assert record.summary[0]["name"] == "sweeps.run"

    def test_monitor_flag_renders_to_stderr(self, tmp_path, capsys):
        history_path = tmp_path / "metrics.jsonl"
        assert self.run_sweep(tmp_path, history_path, extra=("--monitor",)) == 0
        captured = capsys.readouterr()
        assert "[monitor]" in captured.err
        assert "phase=evaluate" in captured.err

    def test_env_var_enables_recording_without_the_flag(self, tmp_path, monkeypatch, capsys):
        history_path = tmp_path / "env-metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS_HISTORY", str(history_path))
        code = main(
            [
                "sweep",
                "run",
                "policy-grid",
                "--hosts",
                "8",
                "--weeks",
                "2",
                "--store",
                str(tmp_path / "store.jsonl"),
                "--no-cache",
                "--quiet",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert len(MetricsHistory(history_path).records()) == 1

    def test_list_show_export_diff_round_trip(self, tmp_path, capsys):
        history_path = tmp_path / "metrics.jsonl"
        assert self.run_sweep(tmp_path, history_path) == 0
        assert self.run_sweep(tmp_path, history_path) == 0
        capsys.readouterr()

        assert main(["metrics", "list", "--history", str(history_path)]) == 0
        listing = capsys.readouterr().out
        assert "Run metrics history" in listing
        assert "policy-grid-" in listing

        assert main(["metrics", "show", "-1", "--history", str(history_path)]) == 0
        assert "Span summary" in capsys.readouterr().out

        exported = tmp_path / "latest.om"
        code = main(
            [
                "metrics",
                "export",
                "--history",
                str(history_path),
                "--output",
                str(exported),
            ]
        )
        assert code == 0
        capsys.readouterr()
        families = parse_openmetrics(exported.read_text())
        assert "repro_run_wall_clock_seconds" in families

        code = main(["metrics", "diff", "0", "-1", "--history", str(history_path)])
        assert code == 0
        assert "wall clock:" in capsys.readouterr().out

    def test_list_on_missing_history_fails_with_guidance(self, tmp_path, capsys):
        code = main(["metrics", "list", "--history", str(tmp_path / "none.jsonl")])
        assert code == 1
        assert "record a run" in capsys.readouterr().err

    def test_diff_on_unknown_run_exits_2(self, tmp_path, capsys):
        history_path = tmp_path / "metrics.jsonl"
        MetricsHistory(history_path).append(make_record())
        code = main(["metrics", "diff", "nope", "-1", "--history", str(history_path)])
        assert code == 2
        assert "no run 'nope'" in capsys.readouterr().err

    def test_trace_report_json_shares_the_summary_shape(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        history_path = tmp_path / "metrics.jsonl"
        assert self.run_sweep(tmp_path, history_path, extra=("--trace", str(trace_path))) == 0
        capsys.readouterr()
        assert main(["trace", "report", str(trace_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"summary", "counters", "gauges", "wall_clock_coverage"}
        (record,) = MetricsHistory(history_path).records()
        assert payload["summary"] == record.summary
