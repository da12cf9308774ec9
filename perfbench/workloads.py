"""The benchmark workloads, each run as one closed loop in one process.

``run.py`` starts this file as a child process in one of three modes:

``prepare``
    Fill the workload's warm population cache for the seed (untimed).
``setup``
    Import, load the warm populations and expand the specs, print ``READY``
    and exit: one set-up sample.
``measure``
    Set up, print ``READY``, then run passes back to back for ``--seconds``
    and print one JSON line with every pass's operation latencies, speed
    probes, failed operations, output digests and (``--trace 1``) per-layer
    metrics.

One caller drives the program's public API serially; the next operation
starts only when the previous one returned.  Correctness checks and digests
run after a pass's operations, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments as experiments
import repro.sweeps.runner as sweeps_runner
from layers import LayerTimer, crosscheck_spans, install_layer_wrappers
from repro.engine import PopulationEngine, population_cache_key
from repro.sweeps import ResultStore, ScenarioSpec, SweepRunner, SweepSpec
from repro.sweeps.catalog import builtin_sweeps
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.workload.enterprise import EnterpriseConfig

#: The paper's host count: the default scale of every workload.
PAPER_HOSTS = 350
#: The committed bench population's seed; fig3's paper-shape claims are
#: calibrated for it and checked only there.
BENCH_SEED = 2009
#: Engine worker processes (the machine this benchmark targets has 2 CPUs).
ENGINE_WORKERS = int(os.environ.get("REPRO_ENGINE_WORKERS", "2"))
MIN_PASSES = 3
MAX_PASSES = 200


def _rounded(value: Any) -> Any:
    """``value`` with every float cut to 10 significant digits (for digests)."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(key): _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def digest(value: Any) -> str:
    """Short content hash of rounded results."""
    text = json.dumps(_rounded(value), sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def _within(values, low: float, high: float) -> bool:
    array = np.asarray(list(values), dtype=float)
    return bool(np.all(np.isfinite(array)) and np.all((array >= low) & (array <= high)))


def _disk_bytes(path: Path) -> int:
    """Size of a file, or of every file under a directory (0 when missing)."""
    if path.is_file():
        return path.stat().st_size
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class SpeedProbe:
    """A fixed reference computation that tracks the host's momentary speed.

    On a shared host the same code runs 1.3-1.9x slower for seconds to
    minutes at a time.  The probe is a few milliseconds of the kind of work
    the program does (row percentiles, a streaming comparison, a per-row
    Python loop) on its own arrays; it never calls the program, so a change
    to the program cannot move it.  Timed between the operations of a pass,
    it says how fast the machine was running around each operation.
    """

    REPEATS = 5

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.random((48, 2016))
        self._block = rng.random(2_000_000)

    def _kernel(self) -> float:
        np.percentile(self._rows, 99.0, axis=1)
        total = float(np.count_nonzero(self._block > 0.5))
        for row in self._rows:
            total += float(row[row > 0.99].sum())
        return total

    def sample(self) -> float:
        """Median seconds of one kernel call over a few repeats."""
        times = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - started)
        return statistics.median(times)


@dataclasses.dataclass
class PassResult:
    """One pass: operation latencies, failures, digests and per-pass byte counts.

    ``ops`` holds ``(name, seconds, segment)``: an operation of segment ``s``
    ran between speed probes ``probes[s - 1]`` and ``probes[s]``.
    """

    speed: Optional[SpeedProbe] = None
    ops: List[Tuple[str, float, int]] = dataclasses.field(default_factory=list)
    probes: List[float] = dataclasses.field(default_factory=list)
    expected: List[str] = dataclasses.field(default_factory=list)
    failed: set = dataclasses.field(default_factory=set)
    digests: Dict[str, str] = dataclasses.field(default_factory=dict)
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)

    def probe(self) -> None:
        """Close the current segment with a speed probe (untimed)."""
        if self.speed is not None:
            self.probes.append(self.speed.sample())

    def record(self, name: str, seconds: float) -> None:
        self.ops.append((name, seconds, len(self.probes)))

    def run(self, name: str, function: Callable[[], Any]) -> Any:
        """Time one operation; an exception fails it and returns None."""
        started = time.perf_counter()
        try:
            return function()
        except Exception:  # an operation boundary: record and keep going
            traceback.print_exc(file=sys.stderr)
            self.failed.add(name)
            return None
        finally:
            self.record(name, time.perf_counter() - started)

    def check(self, name: str, passed: bool, why: str) -> None:
        if not passed:
            self.failed.add(name)
            print(f"perfbench: check failed: {name}: {why}", file=sys.stderr)


class Workload:
    """One workload: a warm cache, a set-up, and a repeatable pass."""

    name = ""

    def __init__(self, seed: int, hosts: int, work_dir: Path, corrupt: bool) -> None:
        self.seed = seed
        self.hosts = hosts
        self.work_dir = work_dir
        self.corrupt = corrupt
        self.cache_dir = work_dir / "cache" / f"{self.name}-s{seed}-h{hosts}"
        #: The layer timer of the running traced pass (None when untraced).
        self.timer: Optional[LayerTimer] = None
        self.assign_breakdown: Dict[str, Tuple[int, int]] = {}
        self.speed = SpeedProbe()

    def engine(self, cache_dir: Optional[Path] = None) -> PopulationEngine:
        return PopulationEngine(workers=ENGINE_WORKERS, cache_dir=cache_dir or self.cache_dir)

    def prepare(self) -> None:
        """Fill the warm cache; only one seed's cache per workload stays on disk."""
        root = self.cache_dir.parent
        if root.is_dir():
            for entry in root.glob(f"{self.name}-*"):
                if entry != self.cache_dir:
                    shutil.rmtree(entry)

    def setup(self) -> None:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Untimed per-pass preparation."""

    def execute(self, result: PassResult) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, outputs: Dict[str, Any], result: PassResult) -> None:
        raise NotImplementedError

    def corrupt_outputs(self, outputs: Dict[str, Any]) -> Dict[str, Any]:
        """A deliberately wrong copy of ``outputs`` (benchmark self-test)."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        self.before_pass()
        result = PassResult(speed=self.speed)
        result.probe()
        outputs = self.execute(result)
        if self.corrupt:
            outputs = self.corrupt_outputs(outputs)
        self.check(outputs, result)
        return result

    @contextlib.contextmanager
    def assign_group(self, group: str):
        """Record distinct/total assignments made while ``group`` runs."""
        timer = self.timer
        first = len(timer.assignment_digests) if timer is not None else 0
        try:
            yield
        finally:
            if timer is not None:
                digests = timer.assignment_digests[first:]
                self.assign_breakdown[group] = (len(set(digests)), len(digests))


# --------------------------------------------------------------------- figures
class Figures(Workload):
    """fig3 + table3 + fig4 on the warm paper-scale two-week population."""

    name = "figures"
    OPS = ("fig3", "table3", "fig4")

    @property
    def config(self) -> EnterpriseConfig:
        return EnterpriseConfig(num_hosts=self.hosts, num_weeks=2, seed=self.seed)

    def prepare(self) -> None:
        super().prepare()
        self.engine().generate(self.config)

    def setup(self) -> None:
        engine = self.engine()
        self.population = engine.generate(self.config)
        if engine.stats.generations:
            raise RuntimeError("figures population missing from the warm cache")

    def execute(self, result: PassResult) -> Dict[str, Any]:
        result.expected = list(self.OPS)
        runners = {
            "fig3": lambda: experiments.run_fig3(self.population),
            "table3": lambda: experiments.run_table3(self.population),
            "fig4": lambda: experiments.run_fig4(self.population),
        }
        outputs = {}
        for name in self.OPS:
            with self.assign_group(name):
                outputs[name] = result.run(name, runners[name])
            result.probe()
        return outputs

    def corrupt_outputs(self, outputs):
        fig4 = outputs["fig4"]
        curves = dict(fig4.detection_curves)
        curves["homogeneous"] = (1.5,) + tuple(curves["homogeneous"][1:])
        return dict(outputs, fig4=dataclasses.replace(fig4, detection_curves=curves))

    def check(self, outputs, result) -> None:
        paper_scale = self.hosts >= PAPER_HOSTS
        fig3 = outputs.get("fig3")
        if fig3 is not None:
            rates = [
                value
                for evaluation in fig3.evaluations.values()
                for perf in evaluation.performances.values()
                for value in (perf.false_positive_rate, perf.false_negative_rate)
            ]
            result.check("fig3", _within(rates, 0.0, 1.0), "FP/FN rate outside [0, 1]")
            sweep = [v for values in fig3.weight_sweep.values() for v in values]
            result.check("fig3", _within(sweep, 0.0, 1.0), "utility outside [0, 1]")
            if paper_scale and self.seed == BENCH_SEED:
                means = fig3.mean_utilities()
                gains = fig3.gain_by_weight()
                result.check(
                    "fig3",
                    means["full-diversity"] >= means["homogeneous"] - 1e-6
                    and gains[-1] >= gains[0] - 1e-6
                    and abs(means["8-partial"] - means["full-diversity"]) < 0.05,
                    "paper shape: diversity gain",
                )
            result.digests["fig3"] = digest(
                {
                    "boxplots": {k: dataclasses.asdict(v) for k, v in fig3.boxplots.items()},
                    "weight_sweep": {k: list(v) for k, v in fig3.weight_sweep.items()},
                }
            )
        table3 = outputs.get("table3")
        if table3 is not None:
            cells = [v for row in table3.alarms.values() for v in row.values()]
            result.check("table3", _within(cells, 0.0, float("inf")), "negative alarm count")
            if paper_scale:
                row = table3.alarms["99th-percentile"]
                rate = table3.per_host_rate("99th-percentile", "full-diversity")
                result.check(
                    "table3",
                    row["8-partial"] <= row["homogeneous"] * 1.2 and 0.0 < rate < 20.0,
                    "paper shape: console alarm volume",
                )
            result.digests["table3"] = digest({k: dict(v) for k, v in table3.alarms.items()})
        fig4 = outputs.get("fig4")
        if fig4 is not None:
            curves = [v for values in fig4.detection_curves.values() for v in values]
            result.check("fig4", _within(curves, 0.0, 1.0), "detection rate outside [0, 1]")
            hidden = [v for values in fig4.hidden_traffic.values() for v in values.values()]
            result.check("fig4", _within(hidden, 0.0, float("inf")), "negative hidden traffic")
            medians = fig4.median_hidden_traffic()
            if paper_scale:
                result.check(
                    "fig4",
                    fig4.stealthy_detection_gap(stealthy_max=100.0) > 0.1
                    and medians["full-diversity"] < medians["homogeneous"]
                    and medians["homogeneous"] / max(medians["full-diversity"], 1e-9) > 1.5,
                    "paper shape: attacker effectiveness",
                )
            curves_by_policy = {k: list(v) for k, v in fig4.detection_curves.items()}
            result.digests["fig4"] = digest({"curves": curves_by_policy, "medians": medians})


# -------------------------------------------------------------------- campaign
class Campaign(Workload):
    """Every packaged sweep through SweepRunner(workers=1) into a fresh store."""

    name = "campaign"

    def _scaled_hosts(self, num_hosts: int) -> int:
        if self.hosts == PAPER_HOSTS:
            return num_hosts
        return max(12, round(num_hosts * self.hosts / PAPER_HOSTS))

    def sweeps(self) -> List[SweepSpec]:
        """The packaged library, re-seeded (and scaled when not at paper scale)."""
        seeded = []
        for spec in builtin_sweeps().values():
            data = spec.to_dict()
            data["sweep"]["seed"] = self.seed
            population = data["scenario"]["population"]
            population["seed"] = self.seed
            population["num_hosts"] = self._scaled_hosts(population["num_hosts"])
            if "population.num_hosts" in data["axes"]:
                values = data["axes"]["population.num_hosts"]
                data["axes"]["population.num_hosts"] = sorted(
                    {self._scaled_hosts(v) for v in values}
                )
            seeded.append(SweepSpec.from_dict(data))
        return seeded

    def distinct_configs(self, expanded: Dict[str, List[ScenarioSpec]]):
        configs = {}
        for scenarios in expanded.values():
            for scenario in scenarios:
                config = scenario.population.to_config()
                configs.setdefault(population_cache_key(config), config)
        return list(configs.values())

    def prepare(self) -> None:
        super().prepare()
        engine = self.engine()
        expanded = {sweep.name: sweep.expand() for sweep in self.sweeps()}
        for config in self.distinct_configs(expanded):
            if not engine.cache.path_for(config).is_file():
                engine.generate(config)

    def setup(self) -> None:
        self.sweep_specs = self.sweeps()
        self.expanded = {sweep.name: sweep.expand() for sweep in self.sweep_specs}
        self.population_engine = self.engine()
        for config in self.distinct_configs(self.expanded):
            self.population_engine.generate(config)
        if self.population_engine.stats.generations:
            raise RuntimeError("campaign populations missing from the warm cache")
        self.store_path = self.work_dir / "campaign-store.jsonl"

    def before_pass(self) -> None:
        self.store_path.unlink(missing_ok=True)

    def execute(self, result: PassResult) -> Dict[str, Any]:
        result.expected = [s.name for scenarios in self.expanded.values() for s in scenarios]
        store = ResultStore(self.store_path)
        runner = SweepRunner(engine=self.population_engine, workers=1)
        for sweep in self.sweep_specs:
            last = [time.perf_counter()]

            def progress(done, total, finished, last=last):
                now = time.perf_counter()
                result.record(finished.scenario.name, now - last[0])
                last[0] = now

            with self.assign_group(sweep.name):
                try:
                    runner.run(sweep, store=store, progress=progress)
                except Exception:  # unfinished scenarios fail in check()
                    traceback.print_exc(file=sys.stderr)
            result.probe()
        result.extras["sweeps.store_bytes"] = float(_disk_bytes(self.store_path))
        return {}

    def corrupt_outputs(self, outputs):
        lines = self.store_path.read_text(encoding="utf-8").splitlines(keepends=True)
        self.store_path.write_text("".join(lines[:-1]), encoding="utf-8")
        return outputs

    def check(self, outputs, result) -> None:
        try:
            records = ResultStore(self.store_path).records()
        except Exception:  # an unreadable store fails every scenario
            traceback.print_exc(file=sys.stderr)
            result.failed.update(result.expected)
            return
        seen: Dict[str, int] = {}
        for record in records:
            seen[record.scenario] = seen.get(record.scenario, 0) + 1
            metrics = record.metrics
            rates = [
                metrics["mean_utility"],
                metrics["mean_false_positive_rate"],
                metrics["mean_false_negative_rate"],
            ]
            result.check(record.scenario, _within(rates, 0.0, 1.0), "rate outside [0, 1]")
            result.check(
                record.scenario, metrics["total_false_alarms"] >= 0, "negative alarm count"
            )
            counts = [
                metrics[key]
                for key in (
                    "total_false_alarms",
                    "distinct_thresholds",
                    "optimizer_iterations",
                    "retrain_count",
                )
            ]
            result.digests[record.scenario] = digest([rates, counts])
        for name in result.expected:
            result.check(name, seen.get(name) == 1, f"{seen.get(name, 0)} store record(s)")


# ------------------------------------------------------------------ cold-start
class ColdStart(Workload):
    """Paper-scale generation and a lazily sharded sampled scenario, from empty."""

    name = "cold-start"
    OPS = ("paper-build", "sharded-cold", "sharded-warm")

    def __init__(self, seed, hosts, work_dir, corrupt) -> None:
        super().__init__(seed, hosts, work_dir, corrupt)
        self.cold_dir = work_dir / "cold-start-cache"
        self.sharded_hosts = hosts * 1024 // PAPER_HOSTS
        self.hosts_per_shard = self.sharded_hosts // 4
        self.sample_size = max(8, hosts * 128 // PAPER_HOSTS)

    def setup(self) -> None:
        self.paper_config = EnterpriseConfig(num_hosts=self.hosts, num_weeks=5, seed=self.seed)
        base = {
            "name": "cold-start-sampled",
            "population": {"num_hosts": self.sharded_hosts, "num_weeks": 2, "seed": self.seed},
            "policy": {"kind": "partial-diversity"},
            "attack": {"kind": "naive", "size": 80.0},
            "evaluation": {
                "sample": {"size": self.sample_size, "seed": self.seed, "bootstrap": 2000}
            },
        }
        self.first_spec = ScenarioSpec.from_dict(base)
        self.second_spec = self.first_spec.with_overrides({"evaluation.sample.seed": self.seed + 1})

    def before_pass(self) -> None:
        shutil.rmtree(self.cold_dir, ignore_errors=True)
        self.cold_dir.mkdir(parents=True)

    def _sampled(self, spec: ScenarioSpec):
        population = self.engine(self.cold_dir).generate_sharded(
            spec.population.to_config(),
            hosts_per_shard=self.hosts_per_shard,
            max_resident_shards=2,
        )
        return sweeps_runner.run_scenario(spec, population)

    def _paper_build(self):
        generating = self.engine(self.cold_dir)
        generated = generating.generate(self.paper_config)
        reloading = self.engine(self.cold_dir)
        reloaded = reloading.generate(self.paper_config)
        return generated, reloaded, generating.stats, reloading.stats

    def execute(self, result: PassResult) -> Dict[str, Any]:
        result.expected = list(self.OPS)
        steps = {
            "paper-build": self._paper_build,
            "sharded-cold": lambda: self._sampled(self.first_spec),
            "sharded-warm": lambda: self._sampled(self.second_spec),
        }
        outputs = {}
        for name in self.OPS:
            with self.assign_group(name):
                outputs[name] = result.run(name, steps[name])
            result.probe()
        result.extras["engine.cache_bytes"] = float(_disk_bytes(self.cold_dir))
        return outputs

    def corrupt_outputs(self, outputs):
        outcome = outputs["sharded-warm"]
        corrupted = dataclasses.replace(outcome, utility_ci_low=outcome.mean_utility + 1)
        return dict(outputs, **{"sharded-warm": corrupted})

    def check(self, outputs, result) -> None:
        built = outputs.get("paper-build")
        if built is not None:
            generated, reloaded, generating_stats, reloading_stats = built
            result.check(
                "paper-build",
                generating_stats.generations == 1 and reloading_stats.cache_hits == 1,
                "expected one generation then one cache hit",
            )
            result.check(
                "paper-build",
                _identical_populations(generated, reloaded),
                "reloaded population differs from the generated one",
            )
            matrices = generated.matrices()
            features = matrices[generated.host_ids[0]].features
            sums = {
                feature.value: float(sum(m.series(feature).values.sum() for m in matrices.values()))
                for feature in features
            }
            result.digests["paper-build"] = digest(sums)
        for name in ("sharded-cold", "sharded-warm"):
            outcome = outputs.get(name)
            if outcome is None:
                continue
            result.check(name, outcome.sample_size == self.sample_size, "sample size")
            result.check(
                name,
                outcome.utility_ci_low <= outcome.mean_utility <= outcome.utility_ci_high,
                "confidence interval does not bracket the estimate",
            )
            result.digests[name] = digest(
                [
                    outcome.mean_utility,
                    outcome.utility_ci_low,
                    outcome.utility_ci_high,
                    outcome.mean_false_positive_rate,
                    outcome.mean_false_negative_rate,
                ]
            )


def _identical_populations(left, right) -> bool:
    if left.host_ids != right.host_ids or left.config != right.config:
        return False
    for host_id in left.host_ids:
        if left.profile(host_id) != right.profile(host_id):
            return False
        left_matrix, right_matrix = left.matrix(host_id), right.matrix(host_id)
        if left_matrix.features != right_matrix.features:
            return False
        for feature in left_matrix.features:
            if not np.array_equal(
                left_matrix.series(feature).values, right_matrix.series(feature).values
            ):
                return False
    return True


WORKLOADS = {cls.name: cls for cls in (Figures, Campaign, ColdStart)}


# --------------------------------------------------------------- per-layer view
def _layer_parts(timer: LayerTimer, recorder: TelemetryRecorder, extras) -> Dict[str, float]:
    """Raw per-layer numbers of one traced unit (the set-up or one pass)."""
    stats, counts, counters = timer.stats, timer.counts, recorder.counters

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    def calls(name):
        return float(stats[name].calls) if name in stats else 0.0

    def total_s(name):
        return stats[name].total_s if name in stats else 0.0

    mismatches = sum(
        row["span_calls"] != row["wrapper_calls"]
        for row in crosscheck_spans(timer, recorder.spans).values()
    )
    return {
        "core.train_s": self_s("core.train"),
        "core.train_calls": calls("core.train"),
        "core.assign_s": self_s("core.assign"),
        "core.assign_calls": calls("core.assign"),
        "core.assign_unique": float(len(set(timer.assignment_digests))),
        "core.measure_s": self_s("core.measure"),
        "core.host_weeks_measured": counts["core.host_weeks_measured"],
        "core.evaluate_self_s": self_s("core.evaluate"),
        "attacks.build_s": self_s("attacks.build"),
        "attacks.build_calls": calls("attacks.build"),
        "optimize.group_s": self_s("optimize.group"),
        "optimize.group_calls": calls("optimize.group"),
        "optimize.iterations": counts["optimize.iterations"],
        "temporal.timeline_s": self_s("temporal.timeline"),
        "temporal.weeks_scored": counts["temporal.weeks_scored"],
        "temporal.retrains": counts["temporal.retrains"],
        "sweeps.expand_s": self_s("sweeps.expand"),
        "sweeps.run_scenario_s": self_s("sweeps.run_scenario"),
        "sweeps.overhead_s": self_s("sweeps.run"),
        "sweeps.store_append_s": self_s("sweeps.store_append"),
        "sweeps.store_bytes": extras.get("sweeps.store_bytes", 0.0),
        "engine.generate_s": self_s("engine.generate"),
        "engine.hosts_generated": float(counters.get("engine.hosts_generated", 0)),
        "engine.cache_store_s": self_s("engine.cache_store"),
        "engine.cache_bytes": extras.get("engine.cache_bytes", 0.0),
        "engine.cache_load_s": self_s("engine.cache_load"),
        "engine.cache_loads": counts["engine.cache_loads"],
        "engine.cache_hits": counts["engine.cache_hits"],
        "engine.shard_resolve_s": self_s("engine.shard_resolve"),
        "engine.shards_loaded": float(counters.get("engine.shards_loaded", 0)),
        "experiments.fig3_s": total_s("experiments.fig3"),
        "experiments.table3_s": total_s("experiments.table3"),
        "experiments.fig4_s": total_s("experiments.fig4"),
        "experiments.self_s": sum(
            self_s(name) for name in ("experiments.fig3", "experiments.table3", "experiments.fig4")
        ),
        "trace.span_mismatches": float(mismatches),
    }


def layer_metrics(setup_parts: Dict[str, float], pass_parts: List[Dict[str, float]]):
    """Set-up plus the median traced pass, with the ratios derived after."""
    combined = {
        key: value + statistics.median(parts[key] for parts in pass_parts)
        for key, value in setup_parts.items()
    }
    unique = combined.pop("core.assign_unique")
    loads = combined.pop("engine.cache_loads")
    hits = combined.pop("engine.cache_hits")
    calls = combined["core.assign_calls"]
    combined["core.assign_unique_ratio"] = unique / calls if calls else 0.0
    combined["core.measure_host_weeks_per_s"] = (
        combined["core.host_weeks_measured"] / combined["core.measure_s"]
        if combined["core.measure_s"]
        else 0.0
    )
    combined["engine.cache_hit_ratio"] = hits / loads if loads else 0.0
    return combined


# ------------------------------------------------------------------------ main
def settings() -> Dict[str, Any]:
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "engine_workers": ENGINE_WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def traced(workload: Workload, function: Callable[[], Any]):
    """Run ``function`` with layer wrappers and a telemetry recorder active."""
    timer = LayerTimer()
    recorder = TelemetryRecorder()
    install_layer_wrappers(timer)
    workload.timer = timer
    try:
        with use_recorder(recorder):
            value = function()
    finally:
        timer.restore()
        workload.timer = None
    return value, timer, recorder


def measure(workload: Workload, seconds: float, trace: bool) -> Dict[str, Any]:
    if trace:
        _, setup_timer, setup_recorder = traced(workload, workload.setup)
    else:
        workload.setup()
    print("READY", flush=True)

    started = time.perf_counter()
    passes: List[Dict[str, Any]] = []
    first_digests: Dict[str, str] = {}
    traced_parts: List[Dict[str, float]] = []
    crosschecks = []
    durations: List[float] = []
    while len(passes) < MAX_PASSES:
        pass_started = time.perf_counter()
        is_traced = trace and len(passes) % 2 == 1
        if is_traced:
            result, timer, recorder = traced(workload, workload.run_pass)
            traced_parts.append(_layer_parts(timer, recorder, result.extras))
            crosschecks.append(crosscheck_spans(timer, recorder.spans))
        else:
            result = workload.run_pass()
        for name, value in result.digests.items():
            if first_digests.setdefault(name, value) != value:
                result.check(name, False, "output differs from the first pass")
        passes.append(
            {
                "traced": is_traced,
                "ops": result.ops,
                "probes": result.probes,
                "attempted": len(result.expected),
                "failed": sorted(result.failed),
            }
        )
        durations.append(time.perf_counter() - pass_started)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + max(durations[-2:]) > seconds:
            break

    payload: Dict[str, Any] = {
        "passes": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_digest": digest(sorted(first_digests.items())),
        "settings": settings(),
    }
    if trace:
        setup_parts = _layer_parts(setup_timer, setup_recorder, {})
        payload["layers"] = layer_metrics(setup_parts, traced_parts)
        payload["crosscheck"] = crosschecks[-1] if crosschecks else {}
        payload["assign_breakdown"] = workload.assign_breakdown
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--hosts", type=int, default=PAPER_HOSTS)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.hosts, args.work_dir, args.corrupt)
    if args.mode == "prepare":
        workload.prepare()
    elif args.mode == "setup":
        workload.setup()
        print("READY", flush=True)
    else:
        payload = measure(workload, args.seconds, bool(args.trace))
        print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
