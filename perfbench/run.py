"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures --seed 2009 --seconds 38 --trace 0

Run from the repository root.  The run fills the workload's warm population
cache for the seed (untimed), times several set-ups, then lets one workload
process run passes for ``--seconds``.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run whose
passes alternate untraced and traced.  Human-readable lines come first; the
last line of standard output is one JSON object.  The exit code is 0 when
every operation passed its correctness checks, 1 when one failed, 2 when the
benchmark could not run at all.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("figures", "campaign", "cold-start")

#: Native thread pools pinned to one thread: the closed loop has one caller.
PINNED_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Population-engine worker processes (at most 2 workers on a 2-CPU machine).
ENGINE_WORKERS = 2
#: Set-up-only processes per run, besides the measuring one (half run
#: before it, half after).
SETUP_PROBES = 4
#: The speed probe's time (``workloads.SpeedProbe``) on the 2-CPU x86-64 VM
#: the benchmark was tuned on when that VM ran fast: calibrated latencies
#: are seconds on a machine of that speed.
REFERENCE_PROBE_S = 0.004
PREPARE_TIMEOUT_S = 600.0
#: Wall-clock budget for everything after the warm cache is filled.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "scenario_p50_ms": "ms",
    "scenario_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "core.train_s": "s",
    "core.train_calls": "count",
    "core.assign_s": "s",
    "core.assign_calls": "count",
    "core.assign_unique_ratio": "ratio",
    "core.measure_s": "s",
    "core.host_weeks_measured": "count",
    "core.measure_host_weeks_per_s": "1/s",
    "core.evaluate_self_s": "s",
    "attacks.build_s": "s",
    "attacks.build_calls": "count",
    "optimize.group_s": "s",
    "optimize.group_calls": "count",
    "optimize.iterations": "count",
    "temporal.timeline_s": "s",
    "temporal.weeks_scored": "count",
    "temporal.retrains": "count",
    "sweeps.expand_s": "s",
    "sweeps.run_scenario_s": "s",
    "sweeps.overhead_s": "s",
    "sweeps.store_append_s": "s",
    "sweeps.store_bytes": "bytes",
    "engine.generate_s": "s",
    "engine.hosts_generated": "count",
    "engine.cache_store_s": "s",
    "engine.cache_bytes": "bytes",
    "engine.cache_load_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.shard_resolve_s": "s",
    "engine.shards_loaded": "count",
    "experiments.fig3_s": "s",
    "experiments.table3_s": "s",
    "experiments.fig4_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
    "trace.span_mismatches": "count",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


def child_environment(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for variable in PINNED_THREAD_VARIABLES:
        env[variable] = "1"
    env["REPRO_ENGINE_WORKERS"] = str(ENGINE_WORKERS)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    source = str(root / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """A workload process whose first output line (``READY``) ends its set-up."""

    def __init__(self, command: List[str], env: Dict[str, str], timeout_s: float) -> None:
        self._started = time.perf_counter()
        self._process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(max(timeout_s, 1.0), self._process.kill)
        self._watchdog.start()

    def wait_ready(self) -> float:
        """Seconds from process start to ``READY``."""
        line = self._process.stdout.readline()
        if line.strip() != "READY":
            self.finish()
            raise BenchmarkError("workload process failed during set-up")
        return time.perf_counter() - self._started

    def finish(self) -> str:
        """Wait for the process to end; its remaining standard output."""
        try:
            output = self._process.stdout.read()
            self._process.wait()
        finally:
            self._watchdog.cancel()
            self._process.stdout.close()
        if self._process.returncode != 0:
            raise BenchmarkError(f"workload process exited with {self._process.returncode}")
        return output


def percentile(samples: List[float], fraction: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(fraction * 100) - 1]


def op_latencies(passes: List[dict], calibrated: bool = True) -> Dict[str, float]:
    """Each operation's median latency over ``passes``.

    With ``calibrated``, every latency is first scaled to reference speed:
    multiplied by ``REFERENCE_PROBE_S`` over the mean of the two speed probes
    that bracket the operation.  On a shared host the machine's speed drifts
    by a third or more between runs; an operation and the probe beside it
    slow down together, so their ratio moves far less than either.
    """
    samples: Dict[str, List[float]] = {}
    for p in passes:
        probes = p["probes"]
        for name, seconds, segment in p["ops"]:
            if calibrated:
                seconds *= REFERENCE_PROBE_S / statistics.fmean(probes[segment - 1 : segment + 1])
            samples.setdefault(name, []).append(seconds)
    return {name: statistics.median(values) for name, values in samples.items()}


def end_to_end(payload: dict, setup_samples: List[float]) -> Dict[str, float]:
    untraced = [p for p in payload["passes"] if not p["traced"]]
    latencies = list(op_latencies(untraced).values())
    probes = [probe for p in untraced for probe in p["probes"]]
    log(
        f"{len(untraced)} untraced pass(es); latency percentiles over the median calibrated "
        f"latency of {len(latencies)} operation(s); {len(setup_samples)} set-up samples"
    )
    log(
        f"uncalibrated pass wall time {sum(op_latencies(untraced, calibrated=False).values()):.4f} s; "
        f"speed probe median {1000 * statistics.median(probes):.3f} ms "
        f"(reference {1000 * REFERENCE_PROBE_S:.1f} ms)"
    )
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(latencies),
        "scenario_p50_ms": 1000.0 * statistics.median(latencies),
        "scenario_p90_ms": 1000.0 * percentile(latencies, 0.90),
        "peak_rss_mib": payload["peak_rss_mib"],
    }


def per_layer(payload: dict) -> Dict[str, float]:
    passes = payload["passes"]
    traced = op_latencies([p for p in passes if p["traced"]])
    untraced = op_latencies([p for p in passes if not p["traced"]])
    layers = dict(payload["layers"])
    layers["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
    for span, row in payload["crosscheck"].items():
        log(
            f"span cross-check {span}: program {row['span_calls']} call(s) "
            f"{row['span_s']:.4f}s, wrappers {row['wrapper_calls']} call(s) "
            f"{row['wrapper_s']:.4f}s"
        )
    for group, (distinct, calls) in payload["assign_breakdown"].items():
        log(f"assignments in {group}: {distinct} distinct of {calls}")
    return {name: layers[name] for name in PER_LAYER_UNITS}


def run(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources in {root / 'src'}; run from the repository root")
    work_dir = root / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    env = child_environment(root)
    base = [
        sys.executable,
        str(BENCH_DIR / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--hosts", str(args.hosts),
        "--work-dir", str(work_dir),
    ]

    prepared = subprocess.run(base + ["prepare"], env=env, timeout=PREPARE_TIMEOUT_S)
    if prepared.returncode != 0:
        raise BenchmarkError("filling the warm population cache failed")
    deadline = time.perf_counter() + RUN_BUDGET_S

    def probe_setups(count: int) -> None:
        for _ in range(count):
            probe = Child(base + ["setup"], env, deadline - time.perf_counter())
            setup_samples.append(probe.wait_ready())
            probe.finish()

    # Set-up probes bracket the measuring process, so the samples span the run.
    setup_samples: List[float] = []
    probes = 0 if args.trace else SETUP_PROBES
    probe_setups(probes // 2)
    measure = ["measure", "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        measure.append("--corrupt")
    child = Child(base + measure, env, deadline - time.perf_counter())
    setup_samples.append(child.wait_ready())
    lines = [line for line in child.finish().splitlines() if line.strip()]
    if not lines:
        raise BenchmarkError("workload process printed no result")
    payload = json.loads(lines[-1])
    probe_setups(probes - probes // 2)

    passes = payload["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    log(f"workload={args.workload} seed={args.seed} hosts={args.hosts} trace={args.trace}")
    log(f"settings {json.dumps(payload['settings'], sort_keys=True)}")
    log(f"output_digest={payload['output_digest']}")
    log(f"attempted={attempted} failed={failed} failed_frac={failed / max(attempted, 1):.6g}")
    for p in passes:
        if p["failed"]:
            log(f"failed operations: {', '.join(p['failed'])}")

    if args.trace:
        metrics = per_layer(payload)
        units = PER_LAYER_UNITS
        correct = failed == 0 and metrics["trace.span_mismatches"] == 0
    else:
        metrics = end_to_end(payload, setup_samples)
        units = END_TO_END_UNITS
        correct = failed == 0
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hosts", type=int, default=350, help="population scale (350 = the paper's)"
    )
    parser.add_argument(
        "--corrupt", action="store_true", help="corrupt one output per pass (self-test)"
    )
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
