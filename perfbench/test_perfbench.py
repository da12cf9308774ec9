"""Self-tests of the benchmark, run at tiny scale (24 hosts) in a scratch checkout.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LayerTimer

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A copy of the files a benchmark checkout holds (no warm cache)."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for directory in ["src", *BENCHMARK["paths"]]:
        shutil.copytree(ROOT / directory, root / directory, ignore=ignore)
    return root


def run_benchmark(root: Path, workload: str, trace: int = 0, corrupt: bool = False):
    command = [
        *BENCHMARK["command"],
        "--workload", workload,
        "--seed", "5",
        "--seconds", "1",
        "--trace", str(trace),
        "--hosts", "24",
    ]
    if corrupt:
        command.append("--corrupt")
    command[0] = sys.executable
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(checkout, workload):
    completed = run_benchmark(checkout, workload)
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac=0" in completed.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(checkout, workload):
    completed = run_benchmark(checkout, workload, trace=1)
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert_metrics(result, BENCHMARK["per_layer"])
    assert result["correct"] and result["metrics"]["trace.span_mismatches"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(checkout, workload):
    completed = run_benchmark(checkout, workload, corrupt=True)
    assert completed.returncode == 1
    result = result_of(completed)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in BENCHMARK["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory)
    completed = run_benchmark(tmp_path, WORKLOADS[0])
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_latency_calibrated_by_the_probes_around_it():
    reference = run.REFERENCE_PROBE_S
    passes = [
        {"ops": [("a", 1.0, 1), ("b", 2.0, 2)], "probes": [reference, 2 * reference, 2 * reference]},
        {"ops": [("a", 0.5, 1), ("b", 1.0, 2)], "probes": [reference, reference, reference]},
    ]
    assert run.op_latencies(passes) == pytest.approx({"a": (1.0 / 1.5 + 0.5) / 2, "b": 1.0})
    assert run.op_latencies(passes, calibrated=False) == pytest.approx({"a": 0.75, "b": 1.5})


def test_layer_self_time_excludes_nested_layers():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    timer = LayerTimer(clock=lambda: next(ticks))

    def inner():
        return "x"

    def outer():
        timer.wrap("inner", inner)()
        return timer.wrap("outer", lambda: None)()  # same-layer call folds in

    assert timer.wrap("outer", outer)() is None
    assert timer.stats["outer"].calls == 1 and timer.stats["inner"].calls == 1
    assert timer.stats["inner"].self_s == 2.0
    assert timer.stats["outer"].total_s == 10.0 and timer.stats["outer"].self_s == 8.0
    assert timer.by_caller[("inner", "outer")].calls == 1
