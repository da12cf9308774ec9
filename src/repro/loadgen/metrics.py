"""Load-run metrics: throughput, latency percentiles and BENCH-style JSON.

After each phase the orchestrator reads the phase's latency samples off the
run's trace (one per evaluation span recorded under its ``loadgen.phase``
span) into a :class:`PhaseMetrics`, which summarises the phase (p50/p95/p99
latency, scenarios/s, host-weeks/s); :class:`LoadReport` serialises the
whole run — either as a plain report dict or as a pytest-benchmark-compatible
payload (:meth:`LoadReport.to_bench_json`) so loadgen numbers land in the
same ``BENCH_*.json`` trajectory the benchmark harness feeds and
``scripts/bench_compare.py`` gates on.

All derived statistics are pure functions of the recorded samples: run the
orchestrator under an injected fake clock and the report reproduces bit for
bit (see ``tests/test_loadgen.py``).
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.loadgen.profiles import LoadProfile
from repro.telemetry import duration_percentile
from repro.utils.validation import require

#: pytest-benchmark payload version the BENCH trajectory files use.
BENCH_FORMAT_VERSION = "5.2.3"


@dataclass(frozen=True)
class PhaseMetrics:
    """Summary of one executed phase.

    ``latencies`` holds the durations of the evaluation spans recorded under
    the phase, one per completed work item (for soak phases: one per
    deployed timeline week); ``host_weeks`` is the total volume of host-week
    evaluations the phase's planned events pushed through the engine, the
    throughput unit the million-host roadmap item is judged in.
    """

    name: str
    kind: str
    num_events: int
    latencies: Tuple[float, ...]
    host_weeks: float
    duration_seconds: float

    def __post_init__(self) -> None:
        require(len(self.latencies) >= 1, f"phase {self.name!r} recorded no samples")
        require(
            all(latency >= 0.0 for latency in self.latencies),
            f"phase {self.name!r}: latencies must be non-negative",
        )
        require(
            self.duration_seconds >= 0.0,
            f"phase {self.name!r}: duration must be non-negative",
        )

    # ------------------------------------------------------------- percentiles
    @property
    def p50(self) -> float:
        """Median per-item latency (seconds)."""
        return duration_percentile(self.latencies, 50.0)

    @property
    def p95(self) -> float:
        """95th-percentile per-item latency (seconds)."""
        return duration_percentile(self.latencies, 95.0)

    @property
    def p99(self) -> float:
        """99th-percentile per-item latency (seconds)."""
        return duration_percentile(self.latencies, 99.0)

    # -------------------------------------------------------------- throughput
    @property
    def scenarios_per_second(self) -> float:
        """Completed work items per second of phase wall clock."""
        if self.duration_seconds == 0.0:
            return 0.0
        return self.num_events / self.duration_seconds

    @property
    def host_weeks_per_second(self) -> float:
        """Host-week evaluations per second of phase wall clock."""
        if self.duration_seconds == 0.0:
            return 0.0
        return self.host_weeks / self.duration_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready phase summary."""
        return {
            "name": self.name,
            "kind": self.kind,
            "num_events": self.num_events,
            "duration_seconds": self.duration_seconds,
            "host_weeks": self.host_weeks,
            "latency_seconds": {
                "p50": self.p50,
                "p95": self.p95,
                "p99": self.p99,
                "samples": list(self.latencies),
            },
            "throughput": {
                "scenarios_per_second": self.scenarios_per_second,
                "host_weeks_per_second": self.host_weeks_per_second,
            },
        }


@dataclass(frozen=True)
class LoadReport:
    """The full result of one load-generation run.

    ``engine_cache`` carries the population-engine cache effectiveness over
    the run (``hits``/``misses``/``hit_ratio`` of the ``engine.cache.*``
    counters the run added, as :func:`~repro.metrics.engine_cache_stats`
    defines them for the run's metrics record), so cache regressions show in
    ``repro loadgen report`` without digging through BENCH JSON; ``None`` on
    reports written before the field existed.
    """

    profile: LoadProfile
    phases: Tuple[PhaseMetrics, ...]
    duration_seconds: float
    timestamp: str
    engine_cache: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        require(len(self.phases) >= 1, "a load report needs at least one phase")

    @property
    def total_events(self) -> int:
        """Work items completed across all phases."""
        return sum(phase.num_events for phase in self.phases)

    @property
    def total_host_weeks(self) -> float:
        """Host-week evaluations completed across all phases."""
        return sum(phase.host_weeks for phase in self.phases)

    @property
    def scenarios_per_second(self) -> float:
        """Run-level throughput in work items per second."""
        if self.duration_seconds == 0.0:
            return 0.0
        return self.total_events / self.duration_seconds

    @property
    def host_weeks_per_second(self) -> float:
        """Run-level throughput in host-weeks per second."""
        if self.duration_seconds == 0.0:
            return 0.0
        return self.total_host_weeks / self.duration_seconds

    def to_dict(self) -> Dict[str, Any]:
        """The plain report payload (``repro loadgen run --json``)."""
        payload = {
            "profile": self.profile.to_dict(),
            "timestamp": self.timestamp,
            "duration_seconds": self.duration_seconds,
            "totals": {
                "events": self.total_events,
                "host_weeks": self.total_host_weeks,
                "scenarios_per_second": self.scenarios_per_second,
                "host_weeks_per_second": self.host_weeks_per_second,
            },
            "phases": [phase.to_dict() for phase in self.phases],
        }
        if self.engine_cache is not None:
            payload["engine_cache"] = dict(self.engine_cache)
        return payload

    # --------------------------------------------------------- BENCH trajectory
    def to_bench_json(
        self,
        machine_info: Optional[Mapping[str, Any]] = None,
        commit_info: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """A pytest-benchmark-compatible payload for the perf trajectory.

        One benchmark entry per phase, named ``loadgen_<profile>_<phase>``,
        whose stats come from the phase's latency samples; throughput and
        percentiles ride along in ``extra_info``.  The result merges cleanly
        with harness-produced ``BENCH_*.json`` files and is what
        ``scripts/bench_compare.py`` reads.
        """
        return {
            "machine_info": dict(machine_info) if machine_info else default_machine_info(),
            "commit_info": dict(commit_info) if commit_info else {},
            "benchmarks": [self._bench_entry(phase) for phase in self.phases],
            "datetime": self.timestamp,
            "version": BENCH_FORMAT_VERSION,
        }

    def _bench_entry(self, phase: PhaseMetrics) -> Dict[str, Any]:
        name = f"loadgen_{self.profile.name}_{phase.name}"
        return {
            "group": "loadgen",
            "name": name,
            "fullname": f"loadgen::{self.profile.name}::{phase.name}",
            "params": None,
            "param": None,
            "extra_info": {
                "profile": self.profile.name,
                "phase": phase.name,
                "kind": phase.kind,
                "num_events": phase.num_events,
                "scenarios_per_second": phase.scenarios_per_second,
                "host_weeks_per_second": phase.host_weeks_per_second,
                "p50": phase.p50,
                "p95": phase.p95,
                "p99": phase.p99,
            },
            "options": {
                "disable_gc": False,
                "timer": "perf_counter",
                "min_rounds": 1,
                "max_time": None,
                "min_time": None,
                "warmup": False,
            },
            "stats": bench_stats(phase.latencies),
        }


def bench_stats(samples: Tuple[float, ...]) -> Dict[str, Any]:
    """pytest-benchmark ``stats`` block computed from raw samples."""
    require(len(samples) >= 1, "bench stats need at least one sample")
    data = np.asarray(samples, dtype=float)
    q1 = duration_percentile(data, 25.0)
    q3 = duration_percentile(data, 75.0)
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = data[(data >= low_fence) & (data <= high_fence)]
    mean = float(data.mean())
    stddev = float(data.std(ddof=1)) if len(data) > 1 else 0.0
    iqr_outliers = int(((data < low_fence) | (data > high_fence)).sum())
    stddev_outliers = (
        int((np.abs(data - mean) > stddev).sum()) if stddev > 0.0 else 0
    )
    return {
        "min": float(data.min()),
        "max": float(data.max()),
        "mean": mean,
        "stddev": stddev,
        "rounds": int(len(data)),
        "median": float(np.median(data)),
        "iqr": iqr,
        "q1": q1,
        "q3": q3,
        "iqr_outliers": iqr_outliers,
        "stddev_outliers": stddev_outliers,
        "outliers": f"{stddev_outliers};{iqr_outliers}",
        "ld15iqr": float(inside.min()) if len(inside) else float(data.min()),
        "hd15iqr": float(inside.max()) if len(inside) else float(data.max()),
        "ops": (1.0 / mean) if mean > 0.0 else 0.0,
        "total": float(data.sum()),
        "data": [float(value) for value in data],
        "iterations": 1,
    }


def default_machine_info() -> Dict[str, Any]:
    """Minimal machine fingerprint for standalone loadgen BENCH payloads."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "python_implementation": platform.python_implementation(),
        "python_version": platform.python_version(),
        "cpu": {"count": _cpu_count()},
    }


def _cpu_count() -> int:
    import os

    return os.cpu_count() or 1


__all__ = [
    "BENCH_FORMAT_VERSION",
    "LoadReport",
    "PhaseMetrics",
    "bench_stats",
    "default_machine_info",
]
