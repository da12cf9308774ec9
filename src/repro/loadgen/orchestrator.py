"""The load orchestrator: execute a planned event stream, record metrics.

:class:`LoadOrchestrator` drives the existing evaluation machinery with the
deterministic event stream :func:`~repro.loadgen.phases.plan_events`
produces:

* ``burst`` phases go through the :class:`~repro.sweeps.runner.SweepRunner`
  (the campaign path), one ``sweeps.scenario`` span per scenario;
* ``steady-ramp``/``flash-crowd``/``failure-injection`` phases evaluate each
  event directly via :func:`~repro.core.evaluation.evaluate_policy` on the
  event's skew-selected host subset — with dropped hosts removed and
  corrupted hosts' matrices bin-masked first — one ``loadgen.event`` span
  per event;
* ``soak`` phases run one :func:`~repro.temporal.evaluate_timeline` pass,
  one ``temporal.week`` span per deployed week.

After each phase its :class:`~repro.loadgen.metrics.PhaseMetrics` is read
off the run's trace: one latency sample per evaluation span
(:data:`~repro.telemetry.EVALUATION_SPANS`) recorded under the phase's
``loadgen.phase`` span, spans merged from pool workers included; event
counts and host-weeks come from the planned events, and the report's engine
cache from the ``engine.cache.*`` counters the run added.  When no ambient
recorder is installed (the default), the orchestrator creates a local
:class:`~repro.telemetry.TelemetryRecorder` bound to its injectable
``clock``, so tests can substitute a fake clock and assert the metrics JSON
reproduces bit for bit; under ``repro --trace`` the run records into the
CLI's recorder (and the phases appear as spans in the exported trace).
Populations are generated once per distinct configuration through the
:class:`~repro.engine.PopulationEngine` (give the engine a cache directory
— as CI does — and the burst phase's runner reloads them instead of
regenerating).
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.evaluation import evaluate_policy
from repro.engine import PopulationEngine, population_cache_key
from repro.features.timeseries import FeatureMatrix
from repro.loadgen.metrics import LoadReport, PhaseMetrics
from repro.loadgen.phases import LoadEvent, corrupt_matrix, plan_events
from repro.loadgen.profiles import LoadProfile
from repro.metrics.record import engine_cache_stats
from repro.sweeps.runner import SweepRunner, scenario_components
from repro.sweeps.spec import SweepSpec
from repro.telemetry import (
    EVALUATION_SPANS,
    TelemetryRecorder,
    get_recorder,
    trace_span,
    use_recorder,
)
from repro.utils.validation import require
from repro.workload.enterprise import EnterprisePopulation

logger = logging.getLogger(__name__)

#: Clock signature: a monotonically non-decreasing seconds counter.
Clock = Callable[[], float]

#: Populations at or above this host count are generated as lazy
#: mmap-backed shards (see :class:`~repro.engine.ShardedPopulation`) instead
#: of materialising every host up front — events then only realise the
#: shards their skew-selected targets live in.
SHARDED_POPULATION_THRESHOLD = 4096


class LoadOrchestrator:
    """Executes load profiles against the batch engine and sweep runner.

    Parameters
    ----------
    engine:
        The :class:`PopulationEngine` generating (and caching) populations;
        defaults to the environment-configured engine.
    workers:
        Evaluation worker count for the burst phase's
        :class:`~repro.sweeps.runner.SweepRunner`.
    clock:
        Seconds counter used for *every* latency and duration sample.
        Injectable so the determinism tests can run under a fake clock;
        defaults to :func:`time.perf_counter`.
    """

    def __init__(
        self,
        engine: Optional[PopulationEngine] = None,
        workers: int = 1,
        clock: Clock = time.perf_counter,
    ) -> None:
        require(workers >= 1, "workers must be >= 1")
        self._engine = engine if engine is not None else PopulationEngine.from_env()
        self._workers = workers
        self._clock = clock
        self._populations: Dict[str, EnterprisePopulation] = {}

    @property
    def engine(self) -> PopulationEngine:
        """The population engine in use."""
        return self._engine

    # ------------------------------------------------------------------- run
    def run(self, profile: LoadProfile, timestamp: str = "") -> LoadReport:
        """Execute ``profile`` and return the full :class:`LoadReport`.

        ``timestamp`` stamps the report (injectable for reproducible JSON);
        empty uses the current UTC time.
        """
        ambient = get_recorder()
        if ambient.enabled:
            # Record into the CLI's --trace recorder: phases and events show
            # up in the exported trace alongside the engine/sweep spans.
            recorder = ambient
            context = nullcontext()
        else:
            # No ambient tracing: a local recorder bound to the injectable
            # clock supplies the span durations the metrics are built from
            # (bit-reproducible under a fake clock).
            recorder = TelemetryRecorder(clock=self._clock)
            context = use_recorder(recorder)
        with context:
            return self._run_traced(profile, recorder, timestamp)

    def _run_traced(
        self, profile: LoadProfile, recorder: TelemetryRecorder, timestamp: str
    ) -> LoadReport:
        started = self._clock()
        counters_before = recorder.counters
        logger.info(
            "loadgen profile %r: %d phase(s), %d host(s)",
            profile.name,
            len(profile.phases),
            profile.num_hosts,
        )
        with trace_span("loadgen.run", profile=profile.name):
            events = plan_events(profile)
            # Generate every distinct population up front: latency samples then
            # measure evaluation, not generation (setup still counts toward the
            # run's total duration).
            with trace_span("loadgen.populations"):
                for event in events:
                    self._population(event)
            phases: List[PhaseMetrics] = []
            for phase_spec in profile.phases:
                phase_events = [
                    event for event in events if event.phase == phase_spec.name
                ]
                # Spans are appended as they end, and every span that ends while
                # the phase span is open nests under it (worker spans are merged
                # under the open span), so the phase's spans are those appended
                # from here on.
                first_span = len(recorder.spans)
                with trace_span(
                    "loadgen.phase", phase=phase_spec.name, kind=phase_spec.kind
                ) as phase_span:
                    if phase_spec.kind == "burst":
                        self._run_burst(profile, phase_events)
                    elif phase_spec.kind == "soak":
                        self._run_soak(profile, phase_events[0])
                    else:
                        for event in phase_events:
                            self._run_direct(profile, event)
                latencies = tuple(
                    span.duration
                    for span in recorder.spans[first_span:]
                    if span.name in EVALUATION_SPANS
                )
                phases.append(
                    PhaseMetrics(
                        name=phase_spec.name,
                        kind=phase_spec.kind,
                        num_events=len(phase_events),
                        latencies=latencies,
                        host_weeks=_host_weeks(profile, phase_events, len(latencies)),
                        duration_seconds=phase_span.duration,
                    )
                )
                logger.info(
                    "phase %r (%s) finished in %.3fs",
                    phase_spec.name,
                    phase_spec.kind,
                    phase_span.duration,
                )
        counters = recorder.counters
        return LoadReport(
            profile=profile,
            phases=tuple(phases),
            duration_seconds=self._clock() - started,
            timestamp=timestamp or _utc_now(),
            engine_cache=engine_cache_stats(
                {name: value - counters_before.get(name, 0) for name, value in counters.items()}
            ),
        )

    # ------------------------------------------------------------ burst phase
    def _run_burst(self, profile: LoadProfile, events: List[LoadEvent]) -> None:
        """Fire the phase's scenarios back-to-back through the sweep runner.

        Scenarios evaluated in pool workers record their ``sweeps.scenario``
        spans there; the runner merges them into the run's recorder under
        this phase, so parallel bursts sample like serial ones.
        """
        runner = SweepRunner(engine=self._engine, workers=self._workers)
        sweep = SweepSpec(name=f"loadgen-{profile.name}")
        runner.run(sweep, scenarios=[event.scenario for event in events])

    # ----------------------------------------------------------- direct phases
    def _run_direct(self, profile: LoadProfile, event: LoadEvent) -> None:
        """Evaluate one event on its host subset (with failures injected)."""
        with trace_span("loadgen.event", index=event.index, kind=event.kind):
            matrices = self._event_matrices(profile, event)
            components = scenario_components(event.scenario)
            evaluate_policy(
                matrices,
                components.policy,
                components.protocol,
                attack_builder=components.attack_builder,
            )

    def _event_matrices(
        self, profile: LoadProfile, event: LoadEvent
    ) -> Dict[int, FeatureMatrix]:
        """The event's evaluated matrices: targets minus drops, faults applied."""
        population = self._population(event)
        dropped = set(event.dropped_hosts)
        matrices = {
            host_id: population.matrix(host_id)
            for host_id in event.target_hosts
            if host_id not in dropped
        }
        if event.corrupted_hosts:
            rng = np.random.default_rng((profile.seed, 7, event.index))
            for host_id in event.corrupted_hosts:
                matrices[host_id] = corrupt_matrix(
                    matrices[host_id], event.corrupt_bins_fraction, rng
                )
        return matrices

    # ------------------------------------------------------------- soak phase
    def _run_soak(self, profile: LoadProfile, event: LoadEvent) -> None:
        """One timeline run: a ``temporal.week`` span per deployed week."""
        from repro.temporal import evaluate_timeline

        population = self._population(event)
        dropped = set(event.dropped_hosts)
        matrices = {
            host_id: population.matrix(host_id)
            for host_id in event.target_hosts
            if host_id not in dropped
        }
        components = scenario_components(event.scenario)
        require(components.schedule is not None, "soak events must carry a schedule")
        evaluate_timeline(
            matrices,
            components.policy,
            components.protocol,
            components.schedule,
            attack_builder=components.attack_builder,
        )

    # -------------------------------------------------------------- populations
    def _population(self, event: LoadEvent) -> EnterprisePopulation:
        """The event's population, generated once per distinct configuration.

        Configurations at or above :data:`SHARDED_POPULATION_THRESHOLD`
        hosts come back as lazy :class:`~repro.engine.ShardedPopulation`
        objects — "generation" only writes the manifest, and each shard
        materialises the first time an event targets a host inside it.
        """
        config = event.scenario.population.to_config()
        key = population_cache_key(config)
        if key not in self._populations:
            if config.num_hosts >= SHARDED_POPULATION_THRESHOLD:
                self._populations[key] = self._engine.generate_sharded(config)
            else:
                self._populations[key] = self._engine.generate(config)
        return self._populations[key]


def _host_weeks(profile: LoadProfile, events: Sequence[LoadEvent], samples: int) -> float:
    """Host-week evaluations a phase's planned events push through the engine.

    A burst scenario evaluates every host (the ``sample_size`` sampled hosts
    when the profile samples) over every week, a direct event its targets
    minus the dropped hosts over every week, and a soak timeline those hosts
    once per deployed week (one latency sample each).
    """
    kind = events[0].kind
    if kind == "burst":
        hosts = profile.sample_size or profile.num_hosts
        return float(len(events) * hosts * profile.num_weeks)
    hosts = sum(len(event.target_hosts) - len(event.dropped_hosts) for event in events)
    return float(hosts * (samples if kind == "soak" else profile.num_weeks))


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def run_profile(
    profile: LoadProfile,
    engine: Optional[PopulationEngine] = None,
    workers: int = 1,
    clock: Clock = time.perf_counter,
    timestamp: str = "",
) -> LoadReport:
    """Convenience wrapper: orchestrate one profile end to end."""
    orchestrator = LoadOrchestrator(engine=engine, workers=workers, clock=clock)
    return orchestrator.run(profile, timestamp=timestamp)
