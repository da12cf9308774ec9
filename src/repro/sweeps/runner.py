"""The sweep runner: expand, deduplicate populations, evaluate, stream.

:class:`SweepRunner` turns a :class:`~repro.sweeps.spec.SweepSpec` into
stored results:

* the sweep expands into concrete scenarios;
* scenarios are grouped by :func:`~repro.engine.cache.population_cache_key`,
  and each *distinct* population configuration is generated exactly once via
  the :class:`~repro.engine.PopulationEngine` (scenarios differing only in
  policy, attack or evaluation knobs reuse one generated population —
  verified by the engine's cumulative :class:`~repro.engine.EngineStats`);
* scenario evaluation fans out across the engine's process pool when the
  runner has ``workers > 1`` and the engine has an on-disk cache (workers
  reload the shared populations from it), and degrades to the bit-identical
  serial path otherwise;
* each finished scenario is appended to the
  :class:`~repro.sweeps.results.ResultStore` and reported through the
  ``progress`` callback as soon as it lands.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.evaluation import DetectionProtocol
from repro.core.experiment import ScenarioOutcome, evaluate_scenario
from repro.engine import EngineStats, PopulationEngine, population_cache_key
from repro.engine.engine import _run_pool
from repro.sweeps.results import ResultStore, ScenarioRecord
from repro.sweeps.spec import ScenarioSpec, SweepSpec, scenario_spec_hash
from repro.telemetry import add_count, child_recorder, monotonic_now, trace_span
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation

logger = logging.getLogger(__name__)

#: Progress callback: (completed count, total count, the finished result).
ProgressCallback = Callable[[int, int, "ScenarioResult"], None]


def planned_attack_feature(spec: ScenarioSpec, protocol: DetectionProtocol):
    """The evaluated feature the optimizer's fused objective should plan for.

    The scenario's attack target, when it is one of the evaluated features;
    ``None`` (= the primary feature) when there is no attack or the attack
    perturbs a feature outside the evaluated set.
    """
    if spec.attack.kind == "none":
        return None
    target = spec.attack.target_feature(protocol.primary_feature)
    return target if target in protocol.features else None


@dataclass(frozen=True)
class ScenarioComponents:
    """The built evaluation machinery one scenario spec describes.

    Produced by :func:`scenario_components` so callers that drive
    :func:`~repro.core.evaluation.evaluate_policy` or
    :func:`~repro.temporal.evaluate_timeline` directly (the load-generation
    orchestrator, custom harnesses) share the exact spec-to-objects wiring
    :func:`run_scenario` uses, instead of re-deriving it.
    """

    protocol: DetectionProtocol
    attack_builder: Optional[Callable[..., Any]]
    policy: Any
    schedule: Any


def scenario_components(spec: ScenarioSpec, bin_width: float) -> ScenarioComponents:
    """Build the protocol, attack builder, policy and schedule of ``spec``.

    ``bin_width`` is the population's bin width (storm traces are replayed
    at the population's binning).  ``schedule`` is ``None`` for one-shot
    evaluations, a :class:`~repro.temporal.RetrainSchedule` otherwise.
    """
    spec.validate()
    protocol = DetectionProtocol(
        features=spec.evaluation.features_enum(),
        fusion=spec.evaluation.fusion_rule(),
        train_week=spec.evaluation.train_week,
        test_week=spec.evaluation.test_week,
        utility_weight=spec.evaluation.utility_weight,
    )
    attack_builder = spec.attack.build_builder(protocol.primary_feature, bin_width)
    optimizer = spec.evaluation.optimizer.build(
        weight=spec.evaluation.utility_weight,
        attack_sizes=spec.policy.attack_sizes,
        attack_feature=planned_attack_feature(spec, protocol),
    )
    return ScenarioComponents(
        protocol=protocol,
        attack_builder=attack_builder,
        policy=spec.policy.build(optimizer=optimizer),
        schedule=spec.evaluation.schedule.build(),
    )


def run_scenario(spec: ScenarioSpec, population: EnterprisePopulation) -> ScenarioOutcome:
    """Evaluate one scenario spec against an already generated population.

    Scenarios with a one-shot schedule run the classic single train/test
    evaluation; timeline schedules (``evaluation.schedule.kind`` of
    ``never``/``every-k-weeks``/``drift-triggered``) run
    :func:`~repro.temporal.evaluate_timeline` over every remaining
    population week and store the aggregated staleness outcome.

    ``population`` may also be a :class:`~repro.engine.ShardedPopulation`:
    with an enabled ``evaluation.sample`` only the shards holding sampled
    hosts are ever loaded.
    """
    components = scenario_components(spec, population.config.bin_width)
    protocol = components.protocol
    attack_builder = components.attack_builder
    policy = components.policy
    schedule = components.schedule
    if schedule is not None:
        from repro.temporal import evaluate_timeline, timeline_outcome

        result = evaluate_timeline(
            population, policy, protocol, schedule, attack_builder=attack_builder
        )
        return timeline_outcome(result, attack_prevalence=spec.evaluation.attack_prevalence)
    return evaluate_scenario(
        population,
        policy,
        protocol,
        attack_builder=attack_builder,
        attack_prevalence=spec.evaluation.attack_prevalence,
        sample=spec.evaluation.sample,
    )


def _evaluate_scenario_task(
    index: int, payload: Dict[str, Any], cache_dir: Optional[str]
) -> Tuple[Tuple[int, Dict[str, Any], float], Dict[str, Any]]:
    """Pool entry point: reload the shared population, evaluate, return.

    The parent generated every distinct population before fanning out, so the
    worker's engine finds it in the on-disk cache and never regenerates.
    Returns the scenario's ``index``, its outcome payload and wall-clock
    duration, plus the worker's telemetry snapshot (merged into the parent
    recorder when tracing).
    """
    started = monotonic_now()
    spec = ScenarioSpec.from_dict(payload)
    with child_recorder() as recorder, trace_span("sweeps.scenario", scenario=spec.name):
        engine = PopulationEngine(workers=1, cache_dir=cache_dir)
        config = spec.population.to_config()
        if spec.evaluation.sample.enabled:
            # Sampled scenarios open the shared .rpopd directory and only
            # load (or generate) the shards their sample touches.
            population = engine.generate_sharded(config)
        else:
            population = engine.generate(config)
        outcome = run_scenario(spec, population)
        add_count("sweeps.scenarios_evaluated")
    return (index, outcome.to_dict(), monotonic_now() - started), recorder.snapshot()


@dataclass(frozen=True)
class ScenarioResult:
    """One evaluated scenario: the spec, its metrics, and provenance."""

    scenario: ScenarioSpec
    outcome: ScenarioOutcome
    duration_seconds: float
    population_reused: bool

    def to_record(self, sweep_name: str, run_id: str = "") -> ScenarioRecord:
        """The JSONL record stored for this result."""
        return ScenarioRecord(
            sweep=sweep_name,
            scenario=self.scenario.name,
            spec=self.scenario.to_dict(),
            metrics=self.outcome.to_dict(),
            timing={
                "duration_seconds": self.duration_seconds,
                "population_reused": self.population_reused,
            },
            run_id=run_id,
        )


@dataclass(frozen=True)
class SweepRunResult:
    """Everything one :meth:`SweepRunner.run` call produced."""

    sweep: SweepSpec
    results: Tuple[ScenarioResult, ...]
    distinct_populations: int
    populations_generated: int
    populations_from_cache: int
    engine_stats: EngineStats
    duration_seconds: float
    workers: int
    skipped_scenarios: Tuple[str, ...] = ()

    @property
    def skipped_count(self) -> int:
        """Scenarios skipped because the store already held their spec hash."""
        return len(self.skipped_scenarios)

    @property
    def scenarios_per_second(self) -> float:
        """Campaign throughput (evaluated scenarios per wall-clock second)."""
        if self.duration_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.duration_seconds

    def summary(self) -> str:
        """One-paragraph accounting of the run."""
        skipped = (
            f", {self.skipped_count} skipped (already in store)" if self.skipped_count else ""
        )
        return (
            f"sweep {self.sweep.name!r}: {len(self.results)} scenario(s) in "
            f"{self.duration_seconds:.1f}s ({self.scenarios_per_second:.2f}/s, "
            f"{self.workers} worker(s)){skipped}; {self.distinct_populations} distinct "
            f"population(s): {self.populations_generated} generated, "
            f"{self.populations_from_cache} from cache"
        )


class SweepRunner:
    """Expands and executes sweeps against a population engine.

    Parameters
    ----------
    engine:
        The :class:`PopulationEngine` used for population generation and
        deduplication; defaults to the environment-configured engine.
    workers:
        Process count for *scenario evaluation* (population generation
        parallelism is the engine's own concern).  More than one worker
        requires the engine to have an on-disk cache — the pool's workers
        reload the shared populations from it; without a cache the runner
        falls back to serial evaluation.
    """

    def __init__(
        self, engine: Optional[PopulationEngine] = None, workers: Optional[int] = None
    ) -> None:
        require(workers is None or workers >= 1, "workers must be >= 1")
        self._engine = engine if engine is not None else PopulationEngine.from_env()
        self._workers = workers if workers is not None else 1

    @property
    def engine(self) -> PopulationEngine:
        """The population engine in use."""
        return self._engine

    @property
    def workers(self) -> int:
        """Configured evaluation worker count."""
        return self._workers

    def run(
        self,
        sweep: SweepSpec,
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
        run_id: str = "",
        scenarios: Optional[List[ScenarioSpec]] = None,
        skip_existing: bool = True,
    ) -> SweepRunResult:
        """Execute every scenario of ``sweep``; returns results in sweep order.

        Each scenario is appended to ``store`` and reported through
        ``progress`` the moment it finishes, so an interrupted campaign keeps
        every completed record.  ``scenarios`` accepts the output of
        ``sweep.expand()`` when the caller already expanded it (avoids a
        second expansion); it must come from this exact sweep.

        With ``skip_existing`` (the default) and a ``store``, scenarios whose
        spec hash already has a record in the store are skipped instead of
        re-evaluated — the sweep-level result cache.  Their names are
        reported in :attr:`SweepRunResult.skipped_scenarios`; pass
        ``skip_existing=False`` (the CLI's ``--rerun``) to force
        re-evaluation.

        Each evaluated scenario records one ``sweeps.scenario`` span on the
        current telemetry recorder (see :mod:`repro.telemetry`) — that is
        where the load orchestrator reads a burst's latency samples.
        """
        started = monotonic_now()
        scenarios = list(scenarios) if scenarios is not None else sweep.expand()
        skipped: Tuple[str, ...] = ()
        if store is not None and skip_existing:
            scenarios, skipped = self._partition_cached(scenarios, store)
        if skipped:
            add_count("sweeps.scenarios_skipped", len(skipped))
        stats_before = self._engine.stats

        def on_finished(completed: int, total: int, result: ScenarioResult) -> None:
            if store is not None:
                store.append(result.to_record(sweep.name, run_id=run_id))
            if progress is not None:
                progress(completed, total, result)

        with trace_span(
            "sweeps.run", sweep=sweep.name, num_scenarios=len(scenarios)
        ) as run_span:
            logger.info(
                "sweep %r: %d scenario(s) to evaluate (%d skipped)",
                sweep.name,
                len(scenarios),
                len(skipped),
            )
            # One content hash per scenario (a JSON dump + SHA-256), shared by
            # the deduplication, the reuse flags and the serial evaluation.
            keys = [population_cache_key(s.population.to_config()) for s in scenarios]
            with trace_span("sweeps.populations"):
                populations, first_use = self._generate_distinct_populations(scenarios, keys)
            run_span.set(distinct_populations=len(populations))
            results, workers = self._evaluate(
                scenarios, keys, populations, first_use, on_finished
            )

        stats_delta_generations = self._engine.stats.generations - stats_before.generations
        stats_delta_hits = self._engine.stats.cache_hits - stats_before.cache_hits
        logger.info(
            "sweep %r finished: %d result(s), %d population(s) generated, %d from cache",
            sweep.name,
            len(results),
            stats_delta_generations,
            stats_delta_hits,
        )
        return SweepRunResult(
            sweep=sweep,
            results=tuple(results),
            distinct_populations=len(populations),
            populations_generated=stats_delta_generations,
            populations_from_cache=stats_delta_hits,
            engine_stats=self._engine.stats,
            duration_seconds=monotonic_now() - started,
            workers=workers,
            skipped_scenarios=skipped,
        )

    # ----------------------------------------------------------- internals
    @staticmethod
    def _partition_cached(
        scenarios: List[ScenarioSpec], store: ResultStore
    ) -> Tuple[List[ScenarioSpec], Tuple[str, ...]]:
        """Split scenarios into (to evaluate, names already in the store)."""
        existing = {scenario_spec_hash(record.spec) for record in store.records()}
        if not existing:
            return scenarios, ()
        kept: List[ScenarioSpec] = []
        skipped: List[str] = []
        for scenario in scenarios:
            if scenario_spec_hash(scenario) in existing:
                skipped.append(scenario.name)
            else:
                kept.append(scenario)
        return kept, tuple(skipped)

    def _generate_distinct_populations(
        self, scenarios: List[ScenarioSpec], keys: List[str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """One engine generation per distinct population configuration.

        ``keys`` holds each scenario's population cache key.  Returns the
        populations keyed by it, plus the name of the first scenario to use
        each key (later users are "reusers").

        A configuration used *only* by sampled scenarios is produced as a
        lazy :class:`~repro.engine.ShardedPopulation` — shards materialise
        on demand when the samples touch them, so arbitrarily large
        populations never fully occupy memory.  As soon as any scenario
        needs the full host set, the classic in-memory generation is used.
        """
        sampled_only: Dict[str, bool] = {}
        for scenario, key in zip(scenarios, keys, strict=True):
            sampled_only[key] = (
                sampled_only.get(key, True) and scenario.evaluation.sample.enabled
            )
        populations: Dict[str, Any] = {}
        first_use: Dict[str, str] = {}
        for scenario, key in zip(scenarios, keys, strict=True):
            if key not in populations:
                config = scenario.population.to_config()
                if sampled_only[key]:
                    populations[key] = self._engine.generate_sharded(config)
                else:
                    populations[key] = self._engine.generate(config)
                first_use[key] = scenario.name
        return populations, first_use

    def _effective_workers(self) -> int:
        if self._workers > 1 and self._engine.cache is None:
            return 1
        return self._workers

    def _evaluate(
        self,
        scenarios: List[ScenarioSpec],
        keys: List[str],
        populations: Dict[str, Any],
        first_use: Dict[str, str],
        progress: Optional[ProgressCallback],
    ) -> Tuple[List[ScenarioResult], int]:
        """Evaluate every scenario; returns the results in sweep order and the workers used.

        ``progress`` sees each result as it finishes.  With more than one
        worker the scenarios run on the engine's pool; if the pool fails
        (restricted environments cannot spawn processes), the scenarios
        without a result run in-process, which is bit-identical, and the run
        reports one worker.
        """
        total = len(scenarios)
        reused = [first_use[key] != s.name for s, key in zip(scenarios, keys, strict=True)]
        slots: List[Optional[ScenarioResult]] = [None] * total
        completed = 0

        def finished(index: int, outcome: ScenarioOutcome, duration: float) -> None:
            nonlocal completed
            slots[index] = ScenarioResult(
                scenario=scenarios[index],
                outcome=outcome,
                duration_seconds=duration,
                population_reused=reused[index],
            )
            completed += 1
            if progress is not None:
                progress(completed, total, slots[index])

        workers = self._effective_workers()
        if workers > 1:
            cache_dir = str(self._engine.cache.directory)
            arguments = [
                (index, scenario.to_dict(), cache_dir) for index, scenario in enumerate(scenarios)
            ]

            def on_result(result: Tuple[int, Dict[str, Any], float]) -> None:
                index, payload, duration = result
                finished(index, ScenarioOutcome.from_dict(payload), duration)

            if not _run_pool(_evaluate_scenario_task, arguments, workers, on_result):
                workers = 1
        for index, scenario in enumerate(scenarios):
            if slots[index] is not None:
                continue
            scenario_started = monotonic_now()
            with trace_span("sweeps.scenario", scenario=scenario.name) as span:
                outcome = run_scenario(scenario, populations[keys[index]])
                add_count("sweeps.scenarios_evaluated")
            duration = (
                span.duration
                if span.duration is not None
                else monotonic_now() - scenario_started
            )
            finished(index, outcome, duration)
        return slots, workers
