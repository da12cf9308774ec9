"""Tests for the telemetry subsystem: recorder, exporters, report, CLI wiring.

The determinism contract under test: for identical seeds the recorded span
*tree* (names, nesting, attributes — timings stripped) is identical across
runs, and the workload counters a parallel run merges from its pool workers
equal the serial run's bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import PopulationEngine
from repro.sweeps.cli import main as cli_main
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepSpec
from repro.telemetry import (
    NULL_RECORDER,
    NULL_SPAN,
    TRACE_FORMAT_VERSION,
    NullRecorder,
    TelemetryRecorder,
    add_count,
    chrome_trace,
    get_recorder,
    monotonic_now,
    read_trace_jsonl,
    render_trace_report,
    set_gauge,
    summarize_spans,
    trace_span,
    use_recorder,
    wall_clock_coverage,
    write_trace_jsonl,
)
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig


def fake_clock(step=1.0, start=0.0):
    """A deterministic monotonic clock advancing ``step`` per call."""
    state = {"now": start - step}

    def tick():
        state["now"] += step
        return state["now"]

    return tick


def _sweep(name="tele-sweep", num_hosts=8, axes=None):
    return SweepSpec.from_dict(
        {
            "sweep": {"name": name},
            "scenario": {
                "name": "base",
                "population": {"num_hosts": num_hosts, "num_weeks": 2, "seed": 77},
                "attack": {"kind": "naive", "size": 50.0},
            },
            "axes": axes or {"policy.kind": ["homogeneous", "full-diversity"]},
        }
    )


#: Counters whose totals must not depend on the worker count (cache counters
#: legitimately differ: pool workers reload populations from the disk cache).
WORKLOAD_COUNTERS = (
    "sweeps.scenarios_evaluated",
    "core.host_weeks_measured",
    "optimize.assignments",
)


# ---------------------------------------------------------------- primitives
class TestRecorder:
    def test_default_recorder_is_null_and_spans_are_noops(self):
        assert get_recorder() is NULL_RECORDER
        assert isinstance(get_recorder(), NullRecorder)
        with trace_span("anything", attr=1) as span:
            assert span is NULL_SPAN
            span.set(more=2)  # must not raise
        add_count("ignored")
        set_gauge("ignored", 3.0)

    def test_spans_nest_and_carry_attributes(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with (
            use_recorder(recorder),
            trace_span("outer", level=0),
            trace_span("inner", level=1) as inner,
        ):
            inner.set(extra="x")
        inner, outer = recorder.spans  # spans are recorded in end order
        assert (outer.name, outer.parent_id) == ("outer", None)
        assert (inner.name, inner.parent_id) == ("inner", outer.span_id)
        assert inner.attributes == {"level": 1, "extra": "x"}
        assert outer.duration == 3.0  # outer start, inner start+end, outer end
        assert inner.duration == 1.0

    def test_span_stack_unwinds_on_exceptions(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder):
            with pytest.raises(RuntimeError), trace_span("outer"), trace_span("failing"):
                raise RuntimeError("boom")
            with trace_span("after"):
                pass
        assert [span.name for span in recorder.spans] == ["failing", "outer", "after"]
        assert recorder.spans[2].parent_id is None
        assert recorder.open_span_id is None

    def test_counters_and_gauges_accumulate(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder):
            add_count("events")
            add_count("events", 4)
            set_gauge("depth", 2.0)
            set_gauge("depth", 5.0)
        assert recorder.counters == {"events": 5}
        assert recorder.gauges == {"depth": 5.0}

    def test_subscribers_see_each_finished_span(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        seen = []

        def on_span(span):
            seen.append(span.name)

        recorder.subscribe(on_span)
        with use_recorder(recorder), trace_span("a"), trace_span("b"):
            pass
        recorder.unsubscribe(on_span)
        with use_recorder(recorder), trace_span("after-unsubscribe"):
            pass
        assert seen == ["b", "a"]  # end order; nothing after unsubscribe

    def test_merge_reparents_worker_roots_and_sums_counters(self):
        parent = TelemetryRecorder(clock=fake_clock())
        worker = TelemetryRecorder(clock=fake_clock(), process="worker-1")
        with use_recorder(worker), trace_span("task"):
            add_count("done", 2)
        with use_recorder(parent):
            add_count("done", 1)
            with trace_span("dispatch"):
                parent.merge(worker.snapshot())
        task = next(span for span in parent.spans if span.name == "task")
        dispatch = next(span for span in parent.spans if span.name == "dispatch")
        assert task.parent_id == dispatch.span_id
        assert task.process == "worker-1"
        assert parent.counters == {"done": 3}

    def test_tree_strips_timings_but_keeps_structure(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder), trace_span("root", n=1), trace_span("child"):
            pass
        assert recorder.tree() == [
            {
                "name": "root",
                "attributes": {"n": 1},
                "children": [{"name": "child", "attributes": {}, "children": []}],
            }
        ]


# ------------------------------------------------------------- determinism
class TestDeterminism:
    def _record_run(self, tmp_path, label, workers=1, sweep=None):
        recorder = TelemetryRecorder()
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / f"cache-{label}")
        with use_recorder(recorder):
            SweepRunner(engine=engine, workers=workers).run(sweep or _sweep())
        return recorder

    def test_span_tree_identical_for_identical_seeds(self, tmp_path):
        first = self._record_run(tmp_path, "first")
        second = self._record_run(tmp_path, "second")
        assert first.tree() == second.tree()
        assert first.counters == second.counters

    def test_parallel_workload_counters_match_serial_bit_for_bit(self, tmp_path):
        serial = self._record_run(tmp_path, "serial", workers=1)
        parallel = self._record_run(tmp_path, "parallel", workers=2)
        for counter in WORKLOAD_COUNTERS:
            assert serial.counters[counter] == parallel.counters[counter], counter
        # The parallel trace carries the worker-recorded scenario spans,
        # re-based into the parent's id space with resolvable parents.
        ids = {span.span_id for span in parallel.spans}
        assert len(ids) == len(parallel.spans)
        for span in parallel.spans:
            assert span.parent_id is None or span.parent_id in ids
        worker_spans = [s for s in parallel.spans if s.process != "main"]
        assert {s.name for s in worker_spans} >= {"sweeps.scenario", "core.evaluate"}

    def test_reuse_counters_stay_serial_and_leave_workload_totals_alone(self, tmp_path):
        # Repeats: every policy trains once and assigns once for both sizes.
        sweep = _sweep(
            axes={
                "policy.kind": ["homogeneous", "full-diversity"],
                "attack.size": [10.0, 50.0],
            }
        )
        serial = self._record_run(tmp_path, "serial", workers=1, sweep=sweep)
        parallel = self._record_run(tmp_path, "parallel", workers=2, sweep=sweep)
        for counter in WORKLOAD_COUNTERS:
            assert serial.counters[counter] == parallel.counters[counter], counter
        assert serial.counters["optimize.assignments"] == 4
        assert serial.counters["core.trainings_reused"] == 3
        assert serial.counters["core.assignments_reused"] == 2
        for counter in ("core.trainings_reused", "core.assignments_reused"):
            assert parallel.counters.get(counter, 0) == 0, counter


# ---------------------------------------------------------------- exporters
class TestExporters:
    def _recorded(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder):
            with trace_span("root", n=2), trace_span("leaf"):
                add_count("work", 3)
            set_gauge("level", 7.5)
        return recorder

    def test_jsonl_round_trip_preserves_snapshot(self, tmp_path):
        recorder = self._recorded()
        path = write_trace_jsonl(recorder, tmp_path / "trace.jsonl")
        assert read_trace_jsonl(path) == recorder.snapshot()

    def test_jsonl_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValidationError, match="unknown trace line type"):
            read_trace_jsonl(path)
        path.write_text("not json\n")
        with pytest.raises(ValidationError, match="not JSON"):
            read_trace_jsonl(path)

    def test_chrome_trace_validates_against_trace_event_schema(self):
        payload = chrome_trace(self._recorded())
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert payload["otherData"]["format_version"] == TRACE_FORMAT_VERSION
        events = payload["traceEvents"]
        phases = {}
        for event in events:
            phases.setdefault(event["ph"], []).append(event)
            # Required trace_event fields for every event.
            assert {"name", "ph", "pid", "tid"} <= set(event)
        for meta in phases["M"]:
            assert meta["name"] == "process_name"
            assert meta["args"]["name"].startswith("repro/")
        for complete in phases["X"]:
            assert complete["ts"] >= 0.0
            assert complete["dur"] >= 0.0
            assert complete["cat"] == "repro"
        root_event = next(event for event in phases["X"] if event["name"] == "root")
        assert root_event["args"] == {"n": 2}
        (counter_event,) = phases["C"]
        assert counter_event["args"] == {"work": 3}

    def test_chrome_trace_normalizes_worker_timestamps(self):
        parent = TelemetryRecorder(clock=fake_clock(start=100.0))
        worker = TelemetryRecorder(clock=fake_clock(start=0.0), process="worker-9")
        with use_recorder(worker), trace_span("task"):
            pass
        with use_recorder(parent), trace_span("dispatch"):
            parent.merge(worker.snapshot())
        events = chrome_trace(parent)["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        # Each process' earliest span starts at ts 0 regardless of clock origin.
        assert {event["ts"] for event in complete} == {0.0}
        assert {event["pid"] for event in complete} == {1, 2}


# ------------------------------------------------------------------- report
class TestReport:
    def test_summary_aggregates_by_path_with_self_time(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder):
            for _ in range(2):
                with trace_span("run"), trace_span("step"):
                    pass
        (run_summary,) = summarize_spans(recorder)
        assert (run_summary.name, run_summary.count) == ("run", 2)
        (step_summary,) = run_summary.children
        assert (step_summary.name, step_summary.count) == ("step", 2)
        assert run_summary.total_seconds == pytest.approx(6.0)
        assert step_summary.total_seconds == pytest.approx(2.0)
        assert run_summary.self_seconds == pytest.approx(4.0)

    def test_wall_clock_coverage_counts_rooted_time(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder):
            with trace_span("a"):
                pass
            with trace_span("b"):
                pass
        # Spans cover [0,1] and [2,3] of the [0,3] extent.
        assert wall_clock_coverage(recorder) == pytest.approx(2.0 / 3.0)
        assert wall_clock_coverage(TelemetryRecorder()) is None

    def test_rendered_report_lists_spans_counters_and_coverage(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder), trace_span("run"):
            add_count("work", 2)
        text = render_trace_report(recorder)
        assert "run" in text
        assert "work" in text
        assert "of the traced wall clock" in text


# ------------------------------------------------------- pipeline integration
class TestPipelineIntegration:
    def test_sweep_trace_covers_wall_clock_and_counts_workload(self, tmp_path):
        recorder = TelemetryRecorder()
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        with use_recorder(recorder):
            run = SweepRunner(engine=engine).run(_sweep())
        assert recorder.counters["sweeps.scenarios_evaluated"] == len(run.results)
        assert recorder.counters["engine.hosts_generated"] == 8
        assert recorder.counters["engine.populations_generated"] == 1
        # Acceptance bar: the span tree accounts for >= 95% of the wall clock.
        assert wall_clock_coverage(recorder) >= 0.95
        names = {span.name for span in recorder.spans}
        assert {"sweeps.run", "sweeps.scenario", "core.evaluate", "core.measure"} <= names

    def test_engine_cache_hit_recorded_as_span_attribute_and_counter(self, tmp_path):
        config = _sweep().scenario.population.to_config()
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            PopulationEngine(workers=1, cache_dir=tmp_path / "cache").generate(config)
            PopulationEngine(workers=1, cache_dir=tmp_path / "cache").generate(config)
        assert recorder.counters["engine.cache.misses"] == 1
        assert recorder.counters["engine.cache.hits"] == 1
        generate_spans = [s for s in recorder.spans if s.name == "engine.generate"]
        assert [s.attributes["cache_hit"] for s in generate_spans] == [False, True]

    def test_temporal_timeline_records_weeks_and_retrains(self, small_population):
        from repro.core.evaluation import DetectionProtocol
        from repro.core.policies import HomogeneousPolicy
        from repro.core.thresholds import PercentileHeuristic
        from repro.features.definitions import Feature
        from repro.temporal import RetrainSchedule, evaluate_timeline

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            evaluate_timeline(
                small_population,
                HomogeneousPolicy(PercentileHeuristic(99.0)),
                DetectionProtocol(features=(Feature.TCP_CONNECTIONS,)),
                RetrainSchedule.every_k_weeks(1),
            )
        assert recorder.counters["temporal.weeks_measured"] >= 1
        names = [span.name for span in recorder.spans]
        assert "temporal.timeline" in names
        assert "temporal.week" in names

    def test_timing_kwarg_is_removed(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        with pytest.raises(TypeError, match="timing"):
            SweepRunner(engine=engine).run(_sweep(), timing=lambda result: None)


# ---------------------------------------------------------------------- CLI
class TestCli:
    def test_sweep_run_records_trace_and_reports_cache_line(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = cli_main(
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
                "--trace",
                str(trace_path),
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 distinct population(s)" in out
        assert "engine cache:" not in out
        assert f"trace written to {trace_path}" in out
        snapshot = read_trace_jsonl(trace_path)
        assert snapshot["counters"]["sweeps.scenarios_evaluated"] == 12
        roots = [span for span in snapshot["spans"] if span["parent"] is None]
        assert {span["name"] for span in roots} == {"sweeps.run"}

        code = cli_main(["sweep", "report", str(tmp_path / "store.jsonl")])
        assert code == 0
        assert "population reuse: 11 of 12 scenario(s)" in capsys.readouterr().out

        code = cli_main(["trace", "report", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweeps.run" in out
        assert "of the traced wall clock" in out

        chrome_path = tmp_path / "trace.chrome.json"
        code = cli_main(["trace", "convert", str(trace_path), str(chrome_path)])
        assert code == 0
        payload = json.loads(chrome_path.read_text())
        assert any(event["ph"] == "X" for event in payload["traceEvents"])

    def test_trace_format_chrome_writes_trace_event_json(self, tmp_path):
        chrome_path = tmp_path / "direct.chrome.json"
        code = cli_main(
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
                "--trace",
                str(chrome_path),
                "--trace-format",
                "chrome",
                "--quiet",
            ]
        )
        assert code == 0
        assert "traceEvents" in json.loads(chrome_path.read_text())

    def test_trace_subcommands_fail_cleanly_on_missing_file(self, tmp_path, capsys):
        assert cli_main(["trace", "report", str(tmp_path / "nope.jsonl")]) == 1
        assert "trace file not found" in capsys.readouterr().err

    def test_verbose_flag_logs_milestones_to_stderr(self, tmp_path, capsys):
        code = cli_main(
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
                "-v",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "population generated" in captured.err

    def test_quiet_flag_suppresses_info_logs(self, tmp_path, capsys):
        code = cli_main(
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
                "-q",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "population generated" not in captured.err
        assert "[" not in captured.out  # per-scenario progress suppressed

    def test_loadgen_report_renders_engine_cache_line(self, tmp_path, capsys):
        report_path = tmp_path / "loadgen.json"
        code = cli_main(
            ["loadgen", "run", "demo", "--json", str(report_path), "--no-cache"]
        )
        assert code == 0
        assert "engine cache:" in capsys.readouterr().out
        assert "engine_cache" in json.loads(report_path.read_text())
        code = cli_main(["loadgen", "report", str(report_path)])
        assert code == 0
        assert "engine cache:" in capsys.readouterr().out


# ------------------------------------------------------- injectable durations
class TestMonotonicNow:
    """The REP002 seam: durations flow through the active recorder's clock."""

    def test_reads_the_active_recorders_clock(self):
        recorder = TelemetryRecorder(clock=fake_clock())
        with use_recorder(recorder):
            assert monotonic_now() == 0.0
            assert monotonic_now() == 1.0
        # Back on the null recorder: real monotonic time keeps flowing.
        assert monotonic_now() <= monotonic_now()

    def test_nested_recorders_pop_back(self):
        outer = TelemetryRecorder(clock=fake_clock(start=100.0))
        inner = TelemetryRecorder(clock=fake_clock(start=0.0))
        with use_recorder(outer):
            assert monotonic_now() == 100.0
            with use_recorder(inner):
                assert monotonic_now() == 0.0
            assert monotonic_now() == 101.0

    def test_engine_report_duration_is_deterministic_under_fake_clock(self, tmp_path):
        def run(label):
            recorder = TelemetryRecorder(clock=fake_clock())
            engine = PopulationEngine(workers=1, cache_dir=tmp_path / label)
            with use_recorder(recorder):
                engine.generate(EnterpriseConfig(num_hosts=6, num_weeks=2, seed=3))
            return engine.last_report

        first, second = run("first"), run("second")
        assert first.duration_seconds == second.duration_seconds
        assert first.duration_seconds > 0.0
