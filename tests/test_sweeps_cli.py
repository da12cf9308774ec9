"""End-to-end tests of the ``repro`` command line (also ``python -m repro``)."""

from __future__ import annotations

import json

import pytest

from repro.sweeps.cli import main

TINY_SWEEP = """
[sweep]
name = "tiny"
description = "cli test sweep"

[scenario.population]
num_hosts = 6
num_weeks = 2
seed = 3

[scenario.attack]
kind = "naive"
size = 40.0

[axes]
"policy.kind" = ["homogeneous", "full-diversity"]
"""


class TestSweepRun:
    def test_run_spec_file_writes_store(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SWEEP)
        store_path = tmp_path / "out.jsonl"
        code = main(
            [
                "sweep",
                "run",
                str(spec_path),
                "--store",
                str(store_path),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(lines) == 2
        assert {line["scenario"] for line in lines} == {
            "tiny/kind=homogeneous",
            "tiny/kind=full-diversity",
        }
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out
        assert "1 distinct population(s): 1 generated" in out

    def test_packaged_sweep_runs_all_scenarios_one_generation(self, tmp_path, capsys):
        # The acceptance path: a >=12-scenario packaged sweep end to end with
        # every scenario reusing one generated population.
        store_path = tmp_path / "policy-grid.jsonl"
        code = main(
            [
                "sweep",
                "run",
                "policy-grid",
                "--hosts",
                "12",
                "--weeks",
                "2",
                "--store",
                str(store_path),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--quiet",
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(records) == 12
        assert all(record["spec"]["population"]["num_hosts"] == 12 for record in records)
        assert "1 distinct population(s): 1 generated, 0 from cache" in capsys.readouterr().out

    def test_unknown_sweep_name_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "run", "no-such-sweep", "--store", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "unknown built-in sweep" in capsys.readouterr().err

    def test_second_run_skips_stored_scenarios(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SWEEP)
        store_path = tmp_path / "out.jsonl"
        argv = [
            "sweep",
            "run",
            str(spec_path),
            "--store",
            str(store_path),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--quiet",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "skipped 2 scenario(s) already in" in out
        assert "--rerun" in out
        assert len(store_path.read_text().splitlines()) == 2

    def test_torn_store_resumes_with_only_the_lost_scenario(self, tmp_path, capsys):
        # A run killed mid-append leaves a partial last record without its newline.
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SWEEP)
        store_path = tmp_path / "out.jsonl"
        argv = [
            "sweep",
            "run",
            str(spec_path),
            "--store",
            str(store_path),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first, second = store_path.read_text().splitlines()
        scenarios = [json.loads(line)["scenario"] for line in (first, second)]
        store_path.write_text(first + "\n" + second[: len(second) // 2])
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "skipped 1 scenario(s) already in" in captured.out
        assert f"{store_path}:2: skipping torn final line" in captured.err
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert [record["scenario"] for record in records] == scenarios

    def test_rerun_flag_reevaluates(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SWEEP)
        store_path = tmp_path / "out.jsonl"
        argv = [
            "sweep",
            "run",
            str(spec_path),
            "--store",
            str(store_path),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--quiet",
        ]
        assert main(argv) == 0
        assert main(argv + ["--rerun"]) == 0
        assert "skipped" not in capsys.readouterr().out.split("sweep 'tiny'")[-1]
        assert len(store_path.read_text().splitlines()) == 4

    def test_feature_fusion_sweep_end_to_end(self, tmp_path, capsys):
        # The acceptance path: the packaged multi-feature sweep completes and
        # every stored record carries per-feature + fused metrics.
        store_path = tmp_path / "fusion.jsonl"
        code = main(
            [
                "sweep",
                "run",
                "feature-fusion",
                "--hosts",
                "10",
                "--weeks",
                "2",
                "--store",
                str(store_path),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--quiet",
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(records) == 27
        fusions = {record["metrics"]["fusion"] for record in records}
        assert fusions == {"any", "all", "2-of-n"}
        sizes = {record["metrics"]["num_features"] for record in records}
        assert sizes == {1, 2, 3}
        for record in records:
            metrics = record["metrics"]
            assert set(metrics["per_feature"]) == set(
                record["spec"]["evaluation"]["features"]
            )
            assert "mean_utility" in metrics


class TestSweepReport:
    @pytest.fixture()
    def populated_store(self, tmp_path):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SWEEP)
        store_path = tmp_path / "out.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "run",
                    str(spec_path),
                    "--store",
                    str(store_path),
                    "--no-cache",
                    "--quiet",
                ]
            )
            == 0
        )
        return store_path

    def test_report_renders_comparison_table(self, populated_store, capsys):
        capsys.readouterr()
        assert main(["sweep", "report", str(populated_store)]) == 0
        out = capsys.readouterr().out
        assert "tiny/kind=homogeneous" in out
        assert "mean_utility" in out

    def test_report_pivot(self, populated_store, capsys):
        capsys.readouterr()
        code = main(
            [
                "sweep",
                "report",
                str(populated_store),
                "--pivot",
                "spec.policy.kind",
                "spec.attack.size",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "homogeneous" in out
        assert "40.0" in out

    def test_report_renders_per_feature_metrics(self, tmp_path, capsys):
        store_path = tmp_path / "fusion.jsonl"
        spec_path = tmp_path / "fused.toml"
        spec_path.write_text(
            """
[sweep]
name = "fused"

[scenario.population]
num_hosts = 6
num_weeks = 2
seed = 3

[scenario.evaluation]
features = ["num_tcp_connections", "num_dns_connections"]

[axes]
"evaluation.fusion.rule" = ["any", "all"]
"""
        )
        assert (
            main(["sweep", "run", str(spec_path), "--store", str(store_path), "--no-cache", "--quiet"])
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "sweep",
                "report",
                str(store_path),
                "--metrics",
                "fusion",
                "mean_false_positive_rate",
                "per_feature.num_tcp_connections.mean_false_positive_rate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per_feature.num_tcp_connections.mean_false_positive_rate" in out
        assert "any" in out and "all" in out

    def test_report_missing_store(self, tmp_path, capsys):
        assert main(["sweep", "report", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "result store not found" in err
        assert "nope.jsonl" in err

    def test_report_empty_store(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["sweep", "report", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "is empty" in err
        assert "repro sweep run" in err

    def test_report_store_is_directory(self, tmp_path, capsys):
        assert main(["sweep", "report", str(tmp_path)]) in (1, 2)
        assert "error" in capsys.readouterr().err


TIMELINE_SWEEP = """
[sweep]
name = "tiny-cadence"
description = "cli timeline test sweep"

[scenario.population]
num_hosts = 6
num_weeks = 4
seed = 3

[scenario.attack]
kind = "none"

[scenario.evaluation.schedule]
kind = "never"

[axes]
"evaluation.schedule.kind" = ["never", "every-k-weeks"]
"""


class TestTimelineCommand:
    @pytest.fixture()
    def timeline_store(self, tmp_path):
        spec_path = tmp_path / "cadence.toml"
        spec_path.write_text(TIMELINE_SWEEP)
        store_path = tmp_path / "cadence.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "run",
                    str(spec_path),
                    "--store",
                    str(store_path),
                    "--no-cache",
                    "--quiet",
                ]
            )
            == 0
        )
        return store_path

    def test_timeline_renders_utility_vs_week_table(self, timeline_store, capsys):
        capsys.readouterr()
        assert main(["timeline", str(timeline_store)]) == 0
        out = capsys.readouterr().out
        assert "mean_utility per deployed week" in out
        for column in ("w1", "w2", "w3", "retrains", "decay/week"):
            assert column in out
        assert "never" in out and "every-1-weeks" in out

    def test_timeline_scenario_filter_and_metric(self, timeline_store, capsys):
        capsys.readouterr()
        assert (
            main(
                [
                    "timeline",
                    str(timeline_store),
                    "--scenario",
                    "never",
                    "--metric",
                    "total_false_alarms",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "total_false_alarms per deployed week" in out
        assert "every-k-weeks" not in out

    def test_timeline_errors_without_timeline_records(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.toml"
        spec_path.write_text(TINY_SWEEP)
        store_path = tmp_path / "oneshot.jsonl"
        assert (
            main(
                ["sweep", "run", str(spec_path), "--store", str(store_path), "--no-cache", "--quiet"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["timeline", str(store_path)]) == 1
        err = capsys.readouterr().err
        assert "no timeline records" in err
        assert "retrain-cadence" in err

    def test_timeline_missing_store(self, tmp_path, capsys):
        assert main(["timeline", str(tmp_path / "nope.jsonl")]) == 1
        assert "not found" in capsys.readouterr().err


class TestOtherCommands:
    def test_sweep_list_shows_catalog(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "policy-grid",
            "attack-intensity",
            "enterprise-scaling",
            "storm-replay",
            "retrain-cadence",
        ):
            assert name in out

    def test_experiments_seed_zero_is_respected(self):
        from repro.sweeps.cli import _experiments_config, build_parser

        args = build_parser().parse_args(
            ["experiments", "--hosts", "8", "--weeks", "2", "--seed", "0"]
        )
        config = _experiments_config(args)
        assert config.seed == 0
        assert config.num_hosts == 8

    def test_experiments_command_runs_suite(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["experiments", "--hosts", "10", "--weeks", "2", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out
        assert "Figure 5" in out

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "list"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "policy-grid" in result.stdout
