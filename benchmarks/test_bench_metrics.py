"""Benchmark: run-metrics recording costs < 2% of what a recorded run pays anyway.

Same methodology as ``test_bench_telemetry.py`` — a direct A/B wall-clock
comparison cannot resolve a 2% bound on shared CI hardware, so the bound is
built from stable quantities:

1. the fig3 hot path's wall clock (the untraced production configuration);
2. the number of telemetry dispatches an identical run performs, counted by
   re-running under an enabled recorder;
3. the per-call cost of an *enabled* span / counter dispatch — what
   ``--metrics`` actually pays, unlike the no-op bound next door;
4. the one-off cost of turning the snapshot into a history record and
   appending it (``build_run_record`` + ``MetricsHistory.append``), measured
   directly on the run's own snapshot;
5. the one-off cost every ``repro`` run pays before any work: importing the
   command-line entry point in a fresh interpreter.

Each cost is bounded against the quantity it scales with: the dispatch
overhead (dispatches x enabled per-call cost) against the fig3 hot path it
instruments, and the record cost, paid once per run however long the run
is, against the once-per-run import.  A faster fig3 therefore tightens only
the dispatch bound.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import run_once
from repro.experiments import run_fig3
from repro.metrics import MetricsHistory, build_run_record
from repro.telemetry import TelemetryRecorder, add_count, trace_span, use_recorder

#: Iterations used to time one enabled span / counter dispatch.
CALIBRATION_ITERATIONS = 20_000

#: Times the entry point's import in a fresh interpreter (printed in seconds).
_TIMED_IMPORT = """
import time
started = time.perf_counter()
import repro.__main__
print(time.perf_counter() - started)
"""


def _enabled_dispatch_costs() -> tuple:
    """Seconds per enabled ``trace_span`` and per enabled ``add_count`` call."""
    recorder = TelemetryRecorder()
    with use_recorder(recorder):
        started = time.perf_counter()
        for _ in range(CALIBRATION_ITERATIONS):
            with trace_span("bench.enabled", depth=1):
                pass
        span_cost = (time.perf_counter() - started) / CALIBRATION_ITERATIONS
        started = time.perf_counter()
        for _ in range(CALIBRATION_ITERATIONS):
            add_count("bench.enabled")
        count_cost = (time.perf_counter() - started) / CALIBRATION_ITERATIONS
    return span_cost, count_cost


def _entry_point_import_cost() -> float:
    """Seconds a fresh interpreter takes to import ``python -m repro``'s module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    child = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return float(child.stdout)


def test_bench_metrics_recording_overhead(benchmark, bench_population, tmp_path):
    """Enabled-recorder dispatch stays < 2% of fig3, the history record < 2% of the import."""

    def timed_fig3():
        started = time.perf_counter()
        run_fig3(bench_population)
        return time.perf_counter() - started

    elapsed = run_once(benchmark, timed_fig3)

    # Count the dispatches an identical run performs under a live recorder.
    recorder = TelemetryRecorder()
    counter_calls = 0
    original_count = recorder.count

    def counting(name, value=1):
        nonlocal counter_calls
        counter_calls += 1
        original_count(name, value)

    recorder.count = counting
    with use_recorder(recorder):
        run_fig3(bench_population)
    span_calls = len(recorder.spans)
    assert span_calls > 0 and counter_calls > 0  # fig3 is instrumented

    # One-off cost of materialising and persisting the history record.
    history = MetricsHistory(tmp_path / "metrics.jsonl")
    started = time.perf_counter()
    record = build_run_record(
        recorder.snapshot(), command="bench fig3", wall_clock_seconds=elapsed
    )
    history.append(record)
    record_cost = time.perf_counter() - started

    span_cost, count_cost = _enabled_dispatch_costs()
    dispatch = span_calls * span_cost + counter_calls * count_cost
    import_cost = _entry_point_import_cost()
    print(
        f"\nfig3: {elapsed:.3f}s; {span_calls} span(s) x {span_cost * 1e6:.2f}us "
        f"+ {counter_calls} count(s) x {count_cost * 1e6:.2f}us "
        f"= {dispatch * 1e3:.3f}ms dispatch overhead ({dispatch / elapsed:.4%} of the hot path); "
        f"record {record_cost * 1e3:.3f}ms ({record_cost / import_cost:.4%} of the "
        f"{import_cost:.3f}s entry-point import)"
    )
    assert dispatch < 0.02 * elapsed
    assert record_cost < 0.02 * import_cost
