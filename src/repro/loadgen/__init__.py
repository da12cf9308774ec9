"""Profile-driven load generation for the batch engine and sweep runner.

The subsystem every scale-out claim is judged with: validated
:class:`~repro.loadgen.profiles.LoadProfile` tiers
(``demo``/``standard``/``peak``/``stress`` plus the packaged ``soak``)
expand — deterministically per seed — into phased event streams
(steady-ramp, burst, flash-crowd replay, failure injection, multi-week
soak) with Zipf/hot-key skew over hosts and features, and the
:class:`~repro.loadgen.orchestrator.LoadOrchestrator` drives the existing
evaluation machinery under a telemetry recorder.  Each phase's throughput
(scenarios/s, host-weeks/s) and latency percentiles (p50/p95/p99) come from
the evaluation spans the run's trace holds under that phase and from its
planned events.  Reports serialize to pytest-benchmark-compatible
``BENCH_*.json`` payloads so loadgen numbers accumulate in the same perf
trajectory ``scripts/bench_compare.py`` gates on.

CLI surface: ``repro loadgen list | run | report``.
"""

from repro.loadgen.metrics import (
    BENCH_FORMAT_VERSION,
    LoadReport,
    PhaseMetrics,
    bench_stats,
)
from repro.loadgen.orchestrator import LoadOrchestrator, run_profile
from repro.loadgen.phases import (
    PHASE_KINDS,
    LoadEvent,
    PhaseSpec,
    corrupt_matrix,
    plan_events,
)
from repro.loadgen.profiles import PROFILE_NAMES, PROFILES, LoadProfile, load_profile
from repro.loadgen.skew import HotKeySelector, ZipfSelector

__all__ = [
    "BENCH_FORMAT_VERSION",
    "HotKeySelector",
    "LoadEvent",
    "LoadOrchestrator",
    "LoadProfile",
    "LoadReport",
    "PHASE_KINDS",
    "PROFILE_NAMES",
    "PROFILES",
    "PhaseMetrics",
    "PhaseSpec",
    "ZipfSelector",
    "bench_stats",
    "corrupt_matrix",
    "load_profile",
    "plan_events",
    "run_profile",
]
