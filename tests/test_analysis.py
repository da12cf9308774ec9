"""Tests for ``repro.analysis``: the REP001–REP004 and REP006 determinism lint.

Fixture trees under ``tests/data/lint_fixtures/`` exercise each rule's
positive and negative cases without importing the fixture code; the engine
is fully static.  The meta-test at the bottom holds the shipped package to
its own standard: ``repro lint`` over ``src/repro`` must exit 0, and each of
the three acceptance regressions (unseeded randomness, a stray wall-clock
read, a schema change without a version bump) must flip the exit to 1.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro
from repro.analysis import (
    LintEngine,
    RULES,
    SUPPRESSION_RULE_ID,
    compute_schema_baseline,
)
from repro.analysis.cli import explain, main as lint_main, run_lint
from repro.analysis.reporters import (
    LINT_REPORT_SCHEMA_VERSION,
    json_report,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"
VIOLATIONS = FIXTURES / "violations"
CLEAN = FIXTURES / "clean"
SUPPRESSED = FIXTURES / "suppressed"

#: The shipped package directory the meta-tests lint.
SRC_TREE = Path(repro.__file__).resolve().parent


def run_rules(root):
    """Engine run without the packaged REP004 baseline (fixture trees)."""
    return LintEngine(use_default_baseline=False).run(root)


def by_rule(result):
    grouped = {}
    for finding in result.findings:
        grouped.setdefault(finding.rule, []).append(finding)
    return grouped


# ------------------------------------------------------------------ rule pack
class TestRulePack:
    def test_clean_tree_has_no_findings(self):
        result = run_rules(CLEAN)
        assert result.findings == []
        assert result.ok
        assert result.files_scanned == 4

    def test_rep001_flags_global_and_unseeded_randomness(self):
        findings = by_rule(run_rules(VIOLATIONS)).get("REP001", [])
        assert len(findings) == 3
        assert all(f.path.endswith("core/bad_randomness.py") for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "numpy.random.rand" in messages
        assert "random.random" in messages
        assert "default_rng() without a seed" in messages

    def test_rep001_allows_seeded_generators_and_the_rng_seam(self):
        findings = by_rule(run_rules(VIOLATIONS)).get("REP001", [])
        # seeded_ok() draws via np.random.default_rng(seed) + rng.random():
        # neither call may be flagged.
        assert all(f.line < 16 for f in findings)

    def test_rep002_flags_wall_clock_reads(self):
        findings = by_rule(run_rules(VIOLATIONS)).get("REP002", [])
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "time.time" in messages
        assert "time.perf_counter" in messages
        assert "datetime.datetime.now" in messages

    def test_rep002_allows_the_recorder_seam(self):
        # clean/telemetry/recorder.py calls time.perf_counter() and is clean.
        assert by_rule(run_rules(CLEAN)).get("REP002", []) == []

    def test_rep003_flags_undeclared_names_only(self):
        findings = by_rule(run_rules(VIOLATIONS)).get("REP003", [])
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "app.typo" in messages
        assert "'nope'" in messages
        assert "bad.gauge" in messages
        assert "app.items" not in messages
        assert "app.load" not in messages

    def test_rep003_skips_trees_without_a_registry(self, tmp_path):
        (tmp_path / "app.py").write_text('with trace_span("anything"):\n    pass\n')
        assert by_rule(run_rules(tmp_path)).get("REP003", []) == []

    def test_rep006_flags_impure_tasks(self):
        findings = by_rule(run_rules(VIOLATIONS)).get("REP006", [])
        assert len(findings) == 4
        messages = " | ".join(f.message for f in findings)
        assert "lambda" in messages
        assert "closure_task" in messages
        assert "shared_results" in messages
        assert "bound method" in messages

    def test_rep006_ignores_modules_without_executors(self, tmp_path):
        (tmp_path / "app.py").write_text(
            "queue = []\n\n\ndef task():\n    return queue\n"
        )
        assert by_rule(run_rules(tmp_path)).get("REP006", []) == []


# -------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_trailing_comment_suppresses_its_own_line(self):
        result = run_rules(SUPPRESSED)
        suppressed = [f for f in result.suppressed if f.rule == "REP002"]
        assert len(suppressed) == 1
        assert suppressed[0].suppression_reason == (
            "provenance label, never parsed back"
        )

    def test_standalone_comment_suppresses_the_next_line(self):
        result = run_rules(SUPPRESSED)
        suppressed = [f for f in result.suppressed if f.rule == "REP001"]
        assert len(suppressed) == 1
        assert "deliberate global shuffle" in suppressed[0].suppression_reason

    def test_reasonless_suppression_does_not_suppress(self):
        result = run_rules(SUPPRESSED)
        # The undocumented time.time() stays a violation...
        assert any(f.rule == "REP002" for f in result.violations)
        # ...and the malformed comment is itself reported.
        hygiene = [f for f in result.violations if f.rule == SUPPRESSION_RULE_ID]
        assert any("without a reason" in f.message for f in hygiene)

    def test_unknown_rule_suppression_is_reported(self):
        result = run_rules(SUPPRESSED)
        hygiene = [f for f in result.violations if f.rule == SUPPRESSION_RULE_ID]
        assert any("REP999" in f.message for f in hygiene)

    def test_suppressed_findings_do_not_fail_the_run(self):
        # A tree whose only findings are documented suppressions is ok.
        result = run_rules(CLEAN)
        assert result.ok
        result = run_rules(SUPPRESSED)
        assert not result.ok  # the undocumented escape keeps failing


# ----------------------------------------------------------------- reporters
class TestReporters:
    def test_json_report_schema(self):
        result = run_rules(SUPPRESSED)
        report = json.loads(render_json(result))
        assert report["schema"] == LINT_REPORT_SCHEMA_VERSION
        assert report["files_scanned"] == result.files_scanned
        assert report["violation_count"] == len(result.violations)
        assert report["suppressed_count"] == len(result.suppressed)
        assert report["ok"] is False
        assert set(report["rules"]) == set(RULES)
        for finding in report["findings"]:
            assert {
                "rule",
                "path",
                "line",
                "column",
                "message",
                "suppressed",
                "suppression_reason",
            } <= set(finding)

    def test_json_report_carries_the_inventory(self, tmp_path):
        report = json_report(run_rules(schema_tree(tmp_path)))
        assert report["inventory"]["schema_fingerprint"]["result_schema_version"] == 4

    def test_text_report_lists_violations_and_reasons(self):
        text = render_text(run_rules(SUPPRESSED))
        assert "REP002" in text
        assert "documented suppressions" in text
        assert "provenance label" in text
        assert "violation(s)" in text


# -------------------------------------------------------------- schema guard
def schema_tree(tmp_path, version=4, extra_field=False):
    """A minimal tree carrying the two halves REP004 fingerprints."""
    root = tmp_path / "tree"
    (root / "core").mkdir(parents=True, exist_ok=True)
    (root / "sweeps").mkdir(exist_ok=True)
    fields = ["mean_utility: float", "mean_detection_rate: float"]
    if extra_field:
        fields.append("mean_latency: float")
    (root / "core" / "experiment.py").write_text(
        "class ScenarioOutcome:\n" + "".join(f"    {field}\n" for field in fields)
    )
    (root / "sweeps" / "results.py").write_text(
        f"RESULT_SCHEMA_VERSION = {version}\n"
        "\n\n"
        "class ScenarioRecord:\n"
        "    name: str\n"
        "    schema: int\n"
    )
    return root


class TestSchemaGuard:
    def test_matching_baseline_is_clean(self, tmp_path):
        root = schema_tree(tmp_path)
        baseline = compute_schema_baseline(root)
        result = LintEngine(schema_baseline=baseline).run(root)
        assert by_rule(result).get("REP004", []) == []

    def test_field_change_without_bump_fires(self, tmp_path):
        baseline = compute_schema_baseline(schema_tree(tmp_path))
        root = schema_tree(tmp_path, extra_field=True)
        findings = by_rule(LintEngine(schema_baseline=baseline).run(root)).get(
            "REP004", []
        )
        assert len(findings) == 1
        assert "mean_latency" in findings[0].message
        assert "RESULT_SCHEMA_VERSION is still 4" in findings[0].message
        assert findings[0].path.endswith("core/experiment.py")

    def test_field_removal_without_bump_fires(self, tmp_path):
        baseline = compute_schema_baseline(schema_tree(tmp_path, extra_field=True))
        root = schema_tree(tmp_path, extra_field=False)
        findings = by_rule(LintEngine(schema_baseline=baseline).run(root)).get(
            "REP004", []
        )
        assert len(findings) == 1
        assert "lost mean_latency" in findings[0].message

    def test_version_bump_with_stale_baseline_fires(self, tmp_path):
        baseline = compute_schema_baseline(schema_tree(tmp_path))
        root = schema_tree(tmp_path, version=5, extra_field=True)
        findings = by_rule(LintEngine(schema_baseline=baseline).run(root)).get(
            "REP004", []
        )
        assert len(findings) == 1
        assert "regenerate" in findings[0].message
        assert findings[0].path.endswith("sweeps/results.py")

    def test_bump_plus_regenerated_baseline_is_clean(self, tmp_path):
        root = schema_tree(tmp_path, version=5, extra_field=True)
        baseline = compute_schema_baseline(root)
        result = LintEngine(schema_baseline=baseline).run(root)
        assert by_rule(result).get("REP004", []) == []

    def test_trees_without_result_records_skip_rep004(self):
        result = LintEngine(use_default_baseline=True).run(CLEAN)
        assert by_rule(result).get("REP004", []) == []


# ----------------------------------------------------------------------- CLI
class TestCli:
    def test_explain_every_rule(self, capsys):
        for rule_id, rule in RULES.items():
            text = explain(rule_id)
            assert rule_id in text
            assert rule.title in text
            assert "Example violation:" in text
        assert lint_main(["--explain", "REP001"]) == 0
        assert "seeded" in capsys.readouterr().out

    def test_explain_unknown_rule_is_a_usage_error(self, capsys):
        assert lint_main(["--explain", "REP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_exit_codes(self, capsys):
        assert lint_main([str(CLEAN)]) == 0
        assert lint_main([str(VIOLATIONS)]) == 1
        capsys.readouterr()

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_without_a_path_lints_src_when_present(self, tmp_path, monkeypatch, capsys):
        shutil.copytree(VIOLATIONS, tmp_path, dirs_exist_ok=True)
        shutil.copytree(CLEAN, tmp_path / "src")
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 0
        shutil.rmtree(tmp_path / "src")
        assert lint_main([]) == 1
        capsys.readouterr()

    def test_json_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = lint_main(
            [str(VIOLATIONS), "--format", "json", "--output", str(out), "--quiet-report"]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert report["violation_count"] > 0
        capsys.readouterr()

    def test_multiple_roots_merge(self):
        result = run_lint([CLEAN, SUPPRESSED])
        assert result.files_scanned == 5
        assert not result.ok

    def test_single_file_lints_alone(self, capsys):
        assert lint_main([str(VIOLATIONS / "core" / "bad_clock.py")]) == 1
        capsys.readouterr()

    def test_write_schema_baseline(self, tmp_path, capsys):
        root = schema_tree(tmp_path)
        destination = tmp_path / "baseline.json"
        code = lint_main(
            [str(root), "--write-schema-baseline", "--schema-baseline", str(destination)]
        )
        assert code == 0
        payload = json.loads(destination.read_text())
        assert payload["result_schema_version"] == 4
        assert "mean_utility" in payload["scenario_outcome_fields"]
        capsys.readouterr()

    def test_explicit_baseline_flag(self, tmp_path, capsys):
        root = schema_tree(tmp_path, extra_field=True)
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps(compute_schema_baseline(schema_tree(tmp_path / "old")))
        )
        code = lint_main([str(root), "--schema-baseline", str(baseline_path)])
        assert code == 1
        assert "REP004" in capsys.readouterr().out


# ---------------------------------------------------- shipped-tree meta-tests
def copy_src_tree(tmp_path):
    destination = tmp_path / "repro"
    shutil.copytree(SRC_TREE, destination, ignore=shutil.ignore_patterns("__pycache__"))
    return destination


class TestShippedTree:
    def test_shipped_tree_lints_clean(self, capsys):
        assert lint_main([str(SRC_TREE)]) == 0
        capsys.readouterr()

    def test_every_shipped_suppression_has_a_reason(self):
        result = LintEngine().run(SRC_TREE)
        assert result.files_scanned > 0  # an empty scan would pass vacuously
        assert result.ok
        assert result.suppressed, "expected at least the run-id suppression"
        for finding in result.suppressed:
            assert finding.suppression_reason.strip()

    def test_unseeded_randomness_fails_the_tree(self, tmp_path, capsys):
        tree = copy_src_tree(tmp_path)
        assert lint_main([str(tree)]) == 0
        (tree / "core" / "lint_demo.py").write_text(
            "import numpy as np\n\nnoise = np.random.rand(4)\n"
        )
        assert lint_main([str(tree)]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_wall_clock_in_core_fails_the_tree(self, tmp_path, capsys):
        tree = copy_src_tree(tmp_path)
        (tree / "core" / "lint_demo.py").write_text(
            "import time\n\nstarted = time.time()\n"
        )
        assert lint_main([str(tree)]) == 1
        assert "REP002" in capsys.readouterr().out

    def test_schema_change_without_bump_fails_the_tree(self, tmp_path, capsys):
        tree = copy_src_tree(tmp_path)
        experiment = tree / "core" / "experiment.py"
        text = experiment.read_text()
        assert "class ScenarioOutcome:" in text
        experiment.write_text(
            text.replace(
                "class ScenarioOutcome:",
                "class ScenarioOutcome:\n    lint_demo_extra: float = 0.0",
                1,
            )
        )
        assert lint_main([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "REP004" in out
        assert "lint_demo_extra" in out
