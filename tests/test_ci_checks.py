"""Tests for the extracted CI gate scripts (``scripts/``).

The scripts live outside the package so CI can call them directly; the tests
load them by file path and exercise both the pass and the fail paths — in
particular the perf-trajectory gate must fail on a synthetic 2x slowdown and
pass when the seed trajectory is compared against itself.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"
SEED_BENCH = REPO / "BENCH_20260727_seed.json"


def load_script(relative: str):
    path = SCRIPTS / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_compare = load_script("bench_compare.py")
check_fusion = load_script("ci_checks/check_fusion.py")
check_cooptimization = load_script("ci_checks/check_cooptimization.py")
check_timeline = load_script("ci_checks/check_timeline.py")
check_result_cache = load_script("ci_checks/check_result_cache.py")
check_scaleout = load_script("ci_checks/check_scaleout.py")
check_metrics = load_script("ci_checks/check_metrics.py")


def bench_payload(medians, machine_info=None):
    """A minimal pytest-benchmark payload with the given name -> median map."""
    return {
        "machine_info": machine_info or {"cpu": {"brand_raw": "x", "count": 4}},
        "commit_info": {},
        "benchmarks": [
            {"name": name, "stats": {"median": median}}
            for name, median in medians.items()
        ],
        "datetime": "2026-08-07T00:00:00+00:00",
        "version": "5.2.3",
    }


# ------------------------------------------------------------- bench_compare
class TestBenchCompare:
    HOT = ("hot_a", "hot_b")

    def test_identical_medians_pass(self):
        medians = {"hot_a": 1.0, "hot_b": 2.0, "cold": 3.0}
        rows, failures = bench_compare.compare(medians, dict(medians), self.HOT, 2.0)
        assert failures == []
        assert len(rows) == 3

    def test_two_x_slowdown_fails(self):
        baseline = {"hot_a": 1.0, "hot_b": 1.0}
        fresh = {"hot_a": 2.5, "hot_b": 1.0}
        _, failures = bench_compare.compare(fresh, baseline, self.HOT, 2.0)
        assert len(failures) == 1
        assert "regressed 2.50x" in failures[0]

    def test_slowdown_on_cold_benchmark_does_not_fail(self):
        baseline = {"hot_a": 1.0, "hot_b": 1.0, "cold": 1.0}
        fresh = {"hot_a": 1.0, "hot_b": 1.0, "cold": 10.0}
        _, failures = bench_compare.compare(fresh, baseline, self.HOT, 2.0)
        assert failures == []

    def test_hot_path_vanishing_from_fresh_fails(self):
        baseline = {"hot_a": 1.0}
        _, failures = bench_compare.compare({}, baseline, self.HOT, 2.0)
        assert any("missing from the fresh" in failure for failure in failures)

    def test_hot_path_absent_from_both_sides_fails(self):
        rows, failures = bench_compare.compare({}, {}, self.HOT, 2.0)
        assert len(failures) == len(self.HOT)
        assert all("BENCHMARK_ALIASES" in failure for failure in failures)
        assert all("ABSENT from both sides" in status for _, status, _ in rows)

    def test_alias_rekeys_renamed_baseline_entry(self):
        baseline = bench_compare.apply_aliases(
            {"old_name": 1.0, "other": 2.0}, {"old_name": "new_name"}
        )
        assert baseline == {"new_name": 1.0, "other": 2.0}
        _, failures = bench_compare.compare(
            {"new_name": 1.5, "other": 2.0}, baseline, ("new_name",), 2.0
        )
        assert failures == []

    def test_alias_defers_to_regenerated_baseline(self):
        baseline = bench_compare.apply_aliases(
            {"old_name": 9.0, "new_name": 1.0}, {"old_name": "new_name"}
        )
        assert baseline == {"old_name": 9.0, "new_name": 1.0}

    def test_geomean_speedup_over_shared_benchmarks(self):
        fresh = {"a": 1.0, "b": 1.0, "fresh_only": 5.0}
        baseline = {"a": 4.0, "b": 1.0, "base_only": 5.0}
        speedup = bench_compare.geomean_speedup(fresh, baseline)
        assert speedup == pytest.approx(2.0)
        assert bench_compare.geomean_speedup({"a": 1.0}, {"b": 1.0}) is None

    def test_new_hot_path_without_baseline_is_skipped(self):
        rows, failures = bench_compare.compare({"hot_a": 5.0}, {}, ("hot_a",), 2.0)
        assert failures == []
        assert "no baseline yet" in rows[0][1]

    def test_merge_medians_first_occurrence_wins(self):
        merged = bench_compare.merge_medians(
            [bench_payload({"a": 1.0}), bench_payload({"a": 9.0, "b": 2.0})]
        )
        assert merged == {"a": 1.0, "b": 2.0}

    def test_machine_caveats_flag_cross_machine_runs(self):
        base = bench_payload({}, machine_info={"cpu": {"brand_raw": "x", "count": 4}})
        other = bench_payload({}, machine_info={"cpu": {"brand_raw": "y", "count": 4}})
        assert bench_compare.machine_caveats(base, [base]) == []
        caveats = bench_compare.machine_caveats(base, [other])
        assert len(caveats) == 1
        assert "different machines" in caveats[0]

    def test_main_seed_vs_seed_passes(self, capsys):
        # The seed payload predates the sweep-throughput hot path, so pin
        # the gate to hot paths the seed actually records.
        code = bench_compare.main(
            [
                str(SEED_BENCH),
                "--baseline",
                str(SEED_BENCH),
                "--hot-path",
                "test_bench_fig4_attacker_effectiveness",
                "--hot-path",
                "test_bench_fig3_utility_comparison",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gate passed" in out
        assert "geomean speedup" in out
        assert "1.00x" in out

    def test_main_synthetic_two_x_slowdown_exits_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        baseline.write_text(json.dumps(bench_payload({"hot_a": 1.0})))
        fresh.write_text(json.dumps(bench_payload({"hot_a": 2.1})))
        code = bench_compare.main(
            [str(fresh), "--baseline", str(baseline), "--hot-path", "hot_a"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed 2.10x" in captured.err

    def test_main_missing_file_exits_two(self, tmp_path):
        assert bench_compare.main([str(tmp_path / "nope.json")]) == 2


# -------------------------------------------------------------- check_fusion
def fusion_record(rule="any", scenario="s"):
    return {
        "scenario": scenario,
        "metrics": {
            "fusion": rule,
            "num_features": 2,
            "mean_utility": 0.5,
            "per_feature": {
                "num_dns_connections": {
                    "mean_false_positive_rate": 0.01,
                    "mean_detection_rate": 0.9,
                }
            },
        },
    }


class TestCheckFusion:
    def test_valid_records_pass(self):
        records = [fusion_record(scenario=f"s{i}") for i in range(3)]
        assert check_fusion.check(records, expect=3) == []

    def test_wrong_count_fails(self):
        assert check_fusion.check([fusion_record()], expect=2)

    def test_unknown_rule_and_missing_per_feature_fail(self):
        bad = fusion_record(rule="median-vote")
        bad["metrics"]["per_feature"] = {}
        errors = check_fusion.check([bad], expect=1)
        assert any("unknown fusion rule" in error for error in errors)
        assert any("per-feature metrics missing" in error for error in errors)

    def test_main_on_real_style_store(self, tmp_path, capsys):
        store = tmp_path / "fusion.jsonl"
        store.write_text(
            "\n".join(json.dumps(fusion_record(scenario=f"s{i}")) for i in range(2))
        )
        assert check_fusion.main([str(store), "--expect", "2"]) == 0
        assert "carry fused + per-feature metrics" in capsys.readouterr().out
        assert check_fusion.main([str(store), "--expect", "3"]) == 1


# ------------------------------------------------------ check_cooptimization
def coopt_record(optimizer, utility, policy="identical", rule="any"):
    return {
        "scenario": f"{policy}/{rule}/{optimizer}",
        "metrics": {
            "optimizer": optimizer,
            "objective_value": utility,
            "optimizer_iterations": 3,
            "mean_utility": utility,
        },
        "spec": {
            "policy": {"kind": policy},
            "evaluation": {"fusion": {"rule": rule}, "optimizer": {"kind": optimizer}},
        },
    }


class TestCheckCooptimization:
    def test_coordinate_ascent_beating_independent_passes(self):
        records = [
            coopt_record("independent", 0.4),
            coopt_record("coordinate-ascent", 0.6),
        ]
        assert check_cooptimization.check(records, expect=2) == []
        gaps = check_cooptimization.utility_gaps(records)
        assert gaps[("identical", "any")] == 0.6 - 0.4

    def test_no_gap_anywhere_fails(self):
        records = [
            coopt_record("independent", 0.6),
            coopt_record("coordinate-ascent", 0.4),
        ]
        errors = check_cooptimization.check(records, expect=2)
        assert any("no fused-utility gap" in error for error in errors)

    def test_spec_disagreement_and_null_objective_fail(self):
        bad = coopt_record("coordinate-ascent", None)
        bad["spec"]["evaluation"]["optimizer"]["kind"] = "independent"
        errors = check_cooptimization.check([bad], expect=1)
        assert any("objective_value missing" in error for error in errors)
        assert any("disagrees" in error for error in errors)

    def test_main_exit_codes(self, tmp_path):
        store = tmp_path / "coopt.jsonl"
        store.write_text(
            "\n".join(
                json.dumps(record)
                for record in (
                    coopt_record("independent", 0.4),
                    coopt_record("coordinate-ascent", 0.6),
                )
            )
        )
        assert check_cooptimization.main([str(store), "--expect", "2"]) == 0
        assert check_cooptimization.main([str(tmp_path / "nope.jsonl")]) == 2


# ------------------------------------------------------------ check_timeline
def timeline_record(schedule_kind, schedule_name, utility, drift="seasonal"):
    weeks = {
        str(week): {"mean_utility": utility, "weeks_since_retrain": week}
        for week in (1, 2, 3, 4)
    }
    return {
        "schema": 4,
        "scenario": f"{drift}/{schedule_name}",
        "metrics": {
            "schedule": schedule_name,
            "num_timeline_weeks": 4,
            "timeline": weeks,
            "retrain_count": 0 if schedule_kind == "never" else 2,
            "retrain_weeks": [],
            "utility_decay_slope": -0.01,
            "training_cost_seconds": 0.1,
            "mean_utility": utility,
        },
        "spec": {
            "policy": {"kind": "identical"},
            "population": {"drift": {"kind": drift}},
            "evaluation": {"schedule": {"kind": schedule_kind}},
        },
    }


def timeline_store(never=0.1, every=0.2, triggered=0.3):
    return [
        timeline_record("never", "never", never),
        timeline_record("every-k-weeks", "every-1-weeks", every),
        timeline_record("drift-triggered", "drift-triggered@0.05", triggered),
    ]


class TestCheckTimeline:
    def test_retraining_beating_never_passes(self):
        assert check_timeline.check(timeline_store(), expect=3) == []

    def test_retraining_losing_to_never_fails(self):
        errors = check_timeline.check(timeline_store(every=0.05), expect=3)
        assert any("does not beat never" in error for error in errors)

    def test_schema_and_week_table_violations_fail(self):
        records = timeline_store()
        records[0]["schema"] = 3
        del records[1]["metrics"]["timeline"]["4"]
        errors = check_timeline.check(records, expect=3)
        assert any("schema 3" in error for error in errors)
        assert any("missing weeks" in error for error in errors)

    def test_main_exit_codes(self, tmp_path, capsys):
        store = tmp_path / "cadence.jsonl"
        store.write_text("\n".join(json.dumps(r) for r in timeline_store()))
        assert check_timeline.main([str(store), "--expect", "3"]) == 0
        assert "retraining strictly beats 'never'" in capsys.readouterr().out
        assert check_timeline.main([str(store), "--expect", "18"]) == 1


# -------------------------------------------------------- check_result_cache
class TestCheckResultCache:
    def test_cached_rerun_output_passes(self):
        output = "loaded store\nskipped 27 scenario(s) already in fusion-smoke.jsonl\n"
        assert check_result_cache.check(output, expect_skipped=27) is None

    def test_uncached_rerun_fails(self):
        assert check_result_cache.check("ran 27 scenario(s)", expect_skipped=27)
        assert check_result_cache.check(
            "skipped 12 scenario(s) already in store", expect_skipped=27
        )

    def test_main_exit_codes(self, tmp_path):
        out = tmp_path / "rerun.txt"
        out.write_text("skipped 27 scenario(s) already in fusion-smoke.jsonl\n")
        assert check_result_cache.main([str(out)]) == 0
        assert check_result_cache.main([str(out), "--expect-skipped", "12"]) == 1
        assert check_result_cache.main([str(tmp_path / "nope.txt")]) == 2


# --------------------------------------------------------------- check_trace
check_trace = load_script("ci_checks/check_trace.py")


def trace_lines(tmp_path, spans=None, counters=None):
    """Write a minimal JSONL trace and return its path."""
    lines = [{"type": "meta", "version": 1, "process": "main"}]
    for name, value in (counters or {}).items():
        lines.append({"type": "counter", "name": name, "value": value})
    for span in spans or []:
        lines.append({"type": "span", **span})
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return path


def span(span_id, name, parent=None, start=0.0, end=1.0):
    return {
        "id": span_id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "attributes": {},
        "process": "main",
    }


def good_trace():
    return {
        "spans": [
            span(1, "sweeps.run"),
            span(2, "sweeps.scenario", parent=1, start=0.1, end=0.9),
        ],
        "counters": {
            "sweeps.scenarios_evaluated": 1,
            "core.host_weeks_measured": 24,
            "engine.hosts_generated": 12,
        },
    }


class TestCheckTrace:
    def test_expected_roots_and_counters_pass(self):
        trace = good_trace()
        assert (
            check_trace.check(
                trace,
                root_spans=check_trace.DEFAULT_ROOT_SPANS,
                counters=check_trace.DEFAULT_COUNTERS,
            )
            == []
        )

    def test_missing_root_span_fails(self):
        trace = good_trace()
        errors = check_trace.check(trace, root_spans=["loadgen.run"], counters=[])
        assert any("root span 'loadgen.run' missing" in error for error in errors)

    def test_zero_counter_and_missing_counter_fail(self):
        trace = good_trace()
        trace["counters"]["sweeps.scenarios_evaluated"] = 0
        errors = check_trace.check(
            trace,
            root_spans=[],
            counters=["sweeps.scenarios_evaluated", "optimize.iterations"],
        )
        assert any("expected > 0" in error for error in errors)
        assert any("'optimize.iterations' missing" in error for error in errors)

    def test_malformed_spans_fail(self):
        trace = good_trace()
        trace["spans"].append(span(3, "core.evaluate", parent=99, start=2.0, end=1.0))
        errors = check_trace.check(trace, root_spans=[], counters=[])
        assert any("negative duration" in error for error in errors)
        assert any("dangling parent id 99" in error for error in errors)

    def test_empty_trace_fails(self):
        errors = check_trace.check(
            {"spans": [], "counters": {}}, root_spans=[], counters=[]
        )
        assert any("no spans" in error for error in errors)

    def test_main_exit_codes(self, tmp_path, capsys):
        good = good_trace()
        path = trace_lines(tmp_path, spans=good["spans"], counters=good["counters"])
        assert check_trace.main([str(path)]) == 0
        assert "expected roots and workload counters present" in capsys.readouterr().out
        assert check_trace.main([str(path), "--counter", "temporal.retrains"]) == 1
        assert check_trace.main([str(tmp_path / "nope.jsonl")]) == 2

    def test_main_unreadable_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "meta", "version": 1}\nnot json\n')
        assert check_trace.main([str(path)]) == 2
        assert "not JSON" in capsys.readouterr().err
        path.write_text('{"type": "event"}\n')
        assert check_trace.main([str(path)]) == 2
        assert "unknown trace line type" in capsys.readouterr().err
        path.write_text('{"type": "counter", "value": 3}\n')
        assert check_trace.main([str(path)]) == 2
        assert "check_trace: error:" in capsys.readouterr().err


# ------------------------------------------------------------- check_scaleout
class TestCheckScaleout:
    def _outcome(self, **overrides):
        from repro.core.experiment import ScenarioOutcome

        fields = dict(
            policy_name="partial-diversity",
            feature="num_tcp_connections",
            num_hosts=8,
            mean_utility=0.6,
            median_utility=0.6,
            mean_false_positive_rate=0.01,
            mean_false_negative_rate=0.1,
            mean_detection_rate=0.9,
            mean_f_measure=0.9,
            total_false_alarms=1,
            fraction_raising_alarm=0.1,
            distinct_thresholds=2,
            sample_size=8,
            sample_seed=7,
            utility_ci_low=0.55,
            utility_ci_high=0.65,
            sample_confidence=0.95,
            bootstrap_iterations=200,
        )
        fields.update(overrides)
        return ScenarioOutcome(**fields)

    def test_valid_sampled_outcome_passes(self):
        assert check_scaleout.check_outcome(self._outcome(), sample=8, budget_mb=1e6) == []

    def test_wrong_sample_size_fails(self):
        errors = check_scaleout.check_outcome(self._outcome(), sample=16, budget_mb=1e6)
        assert any("sample_size" in error for error in errors)

    def test_missing_interval_fails(self):
        outcome = self._outcome(utility_ci_low=None, utility_ci_high=None)
        errors = check_scaleout.check_outcome(outcome, sample=8, budget_mb=1e6)
        assert any("confidence interval" in error for error in errors)

    def test_interval_not_bracketing_estimate_fails(self):
        outcome = self._outcome(mean_utility=0.9)
        errors = check_scaleout.check_outcome(outcome, sample=8, budget_mb=1e6)
        assert any("does not bracket" in error for error in errors)

    def test_blown_rss_budget_fails(self):
        errors = check_scaleout.check_outcome(self._outcome(), sample=8, budget_mb=0.001)
        assert any("peak RSS" in error for error in errors)

    def test_main_small_scale_end_to_end(self, tmp_path, capsys):
        code = check_scaleout.main(
            [
                "--hosts", "48",
                "--sample", "8",
                "--hosts-per-shard", "16",
                "--budget-mb", "100000",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK: 48 hosts in 3 shard(s), sampled 8" in out


# -------------------------------------------------------------- check_metrics
class TestCheckMetrics:
    def _record(self, **overrides):
        from repro.metrics import build_run_record
        from repro.telemetry import TelemetryRecorder, add_count, trace_span, use_recorder

        recorder = TelemetryRecorder()
        with use_recorder(recorder), trace_span("sweeps.run"):
            add_count("sweeps.scenarios_evaluated", 5)
        record = build_run_record(
            recorder.snapshot(),
            command="sweep run",
            wall_clock_seconds=1.5,
            run_id="synthetic-run",
            timestamp="2026-08-07T00:00:00+00:00",
            rss_probe=lambda: 32 * 1024 * 1024,
        )
        payload = record.to_dict()
        payload.update(overrides)
        return payload

    def _history(self, tmp_path, *payloads):
        path = tmp_path / "metrics.jsonl"
        path.write_text("".join(json.dumps(p, sort_keys=True) + "\n" for p in payloads))
        return path

    def test_valid_history_passes(self, tmp_path):
        path = self._history(tmp_path, self._record())
        assert check_metrics.validate_history(path) == []

    def test_missing_history_fails(self, tmp_path):
        errors = check_metrics.validate_history(tmp_path / "none.jsonl")
        assert any("holds no records" in error for error in errors)

    def test_empty_summary_fails(self, tmp_path):
        path = self._history(tmp_path, self._record(summary=[]))
        errors = check_metrics.validate_history(path)
        assert any("span summary tree is empty" in error for error in errors)

    def test_non_positive_wall_clock_fails(self, tmp_path):
        path = self._history(tmp_path, self._record(wall_clock_seconds=0.0))
        errors = check_metrics.validate_history(path)
        assert any("wall_clock_seconds" in error for error in errors)

    def test_zero_rss_fails(self, tmp_path):
        path = self._history(tmp_path, self._record(peak_rss_bytes=0))
        errors = check_metrics.validate_history(path)
        assert any("peak_rss_bytes" in error for error in errors)

    def test_missing_workload_counter_fails(self, tmp_path):
        path = self._history(tmp_path, self._record(counters={}))
        errors = check_metrics.validate_history(path)
        assert any("sweeps.scenarios_evaluated" in error for error in errors)

    def test_sharded_smoke_records_nonzero_gauges(self, tmp_path):
        from repro.metrics import MetricsHistory

        path = tmp_path / "metrics.jsonl"
        errors = check_metrics.sharded_smoke(
            path,
            hosts=48,
            weeks=2,
            sample=8,
            hosts_per_shard=16,
            cache_dir=str(tmp_path / "cache"),
        )
        assert errors == []
        (record,) = MetricsHistory(path).records()
        assert record.gauges["engine.shards_resident"] > 0.0
        assert record.gauges["engine.shard_bytes_resident"] > 0.0
        assert record.gauges["process.rss_bytes"] > 0.0
        assert record.shards["loaded"] > 0

    def test_main_skip_smoke_validates_and_exports(self, tmp_path, capsys):
        path = self._history(tmp_path, self._record())
        export = tmp_path / "latest.om"
        code = check_metrics.main([str(path), "--skip-smoke", "--export", str(export)])
        assert code == 0
        assert "OK: 1 record(s)" in capsys.readouterr().out
        assert export.read_text().endswith("# EOF\n")

    def test_main_fails_on_bad_history(self, tmp_path, capsys):
        path = self._history(tmp_path, self._record(summary=[]))
        code = check_metrics.main([str(path), "--skip-smoke"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err
