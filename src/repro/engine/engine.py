"""The parallel population engine.

:class:`PopulationEngine` is the single entry point the rest of the stack
uses to obtain an :class:`~repro.workload.enterprise.EnterprisePopulation`:

* **Vectorised fast path** — each host's feature matrix is drawn with the
  batched numpy operations in :class:`~repro.workload.generator.HostSeriesGenerator`.
* **Process-pool fan-out** — hosts are split into chunks and generated on a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Every per-host random
  stream is derived from ``(config.seed, host_id)`` alone, so parallel output
  is bit-identical to serial output regardless of worker count or scheduling.
  The same pool builds the missing shards of a sharded population made by
  :meth:`PopulationEngine.generate_sharded` (see :mod:`repro.engine.sharded`).
* **On-disk cache** — populations are stored as ``.rpopd`` layouts under a
  content hash of the configuration (see :mod:`repro.engine.cache`), so
  repeated experiment and benchmark runs skip generation entirely.

Environment overrides (picked up by :meth:`PopulationEngine.from_env`, which
is what :func:`~repro.workload.enterprise.generate_enterprise` uses when no
engine is passed):

* ``REPRO_ENGINE_WORKERS`` — worker-process count (``1`` forces serial).
* ``REPRO_CACHE_DIR`` — cache directory; setting it enables caching.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.cache import DEFAULT_CACHE_DIR, PopulationCache, resolve_cache_dir
from repro.engine.serialization import DEFAULT_HOSTS_PER_SHARD
from repro.features.timeseries import FeatureMatrix
from repro.telemetry import add_count, child_recorder, get_recorder, monotonic_now, trace_span
from repro.utils.rng import RandomSource
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import (
    EnterpriseConfig,
    EnterprisePopulation,
    build_population_events,
    generate_host,
    population_grid,
)
from repro.workload.profiles import HostProfile, UserRole

logger = logging.getLogger(__name__)

#: Environment variable overriding the worker-process count.
WORKERS_ENV = "REPRO_ENGINE_WORKERS"

#: Populations smaller than this are generated serially even when the engine
#: is configured with multiple workers — pool startup would dominate.
MIN_PARALLEL_HOSTS = 64

#: Upper bound on auto-detected workers (beyond this, chunk pickling and
#: process startup outweigh the extra parallelism at paper scale).
MAX_AUTO_WORKERS = 8


def default_worker_count() -> int:
    """Worker count used when none is configured: env override, else CPU count."""
    from_env = os.environ.get(WORKERS_ENV)
    if from_env:
        try:
            workers = int(from_env)
        except ValueError:
            raise ValidationError(f"{WORKERS_ENV} must be an integer, got {from_env!r}") from None
        require(workers >= 1, f"{WORKERS_ENV} must be >= 1, got {workers}")
        return workers
    return min(os.cpu_count() or 1, MAX_AUTO_WORKERS)


def _generate_host_chunk(
    config: EnterpriseConfig,
    host_ids: Sequence[int],
    roles: Mapping[int, UserRole],
) -> List[Tuple[int, HostProfile, FeatureMatrix]]:
    """Worker entry point: generate a batch of hosts from scratch.

    Reconstructs the population-level random source, event schedule and bin
    grid from the configuration, so the only state shipped to the worker is
    the config and the host ids.
    """
    random_source = RandomSource(seed=config.seed, label="enterprise")
    events = build_population_events(config)
    grid = population_grid(config)
    results: List[Tuple[int, HostProfile, FeatureMatrix]] = []
    with trace_span("engine.generate_chunk", num_hosts=len(host_ids)):
        for host_id in host_ids:
            profile, matrix = generate_host(
                config, host_id, random_source, events, role=roles.get(host_id), grid=grid
            )
            results.append((host_id, profile, matrix))
    # Counted here — inside the worker for parallel runs, inline for serial
    # ones — so parallel and serial counter totals match bit for bit.
    add_count("engine.hosts_generated", len(results))
    return results


def _generate_host_chunk_task(
    config: EnterpriseConfig,
    host_ids: Sequence[int],
    roles: Mapping[int, UserRole],
) -> Tuple[List[Tuple[int, HostProfile, FeatureMatrix]], Dict[str, Any]]:
    """Pool entry point: a host chunk plus the worker's telemetry snapshot."""
    with child_recorder() as recorder:
        results = _generate_host_chunk(config, host_ids, roles)
    return results, recorder.snapshot()


#: What a process pool raises when it cannot run tasks at all: OSError (no
#: process spawning / shared memory), BrokenProcessPool (workers died without
#: a result) and AssertionError (daemonic processes creating children).
_POOL_FAILURES = (OSError, BrokenProcessPool, AssertionError)


def _exit_with_parent() -> None:
    """Pool worker initializer: end the worker as soon as its parent process dies.

    A parent killed outright (SIGKILL, OOM) cannot shut its pool down, and a
    worker waiting on the task queue would then wait forever.  A daemon
    thread waits on the parent's sentinel, which becomes ready when the
    parent is gone, and exits the worker at once; nobody is left to read its
    result, and the manifest never records a shard file it was writing.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _run_pool(
    task: Callable[..., Tuple[Any, Dict[str, Any]]],
    arguments: Sequence[Tuple[Any, ...]],
    workers: int,
    on_result: Callable[[Any], None],
) -> bool:
    """Run ``task(*args)`` for every ``args`` on a ``workers``-process pool.

    Each task returns ``(result, telemetry snapshot)``.  As each one
    finishes, its snapshot is merged into the caller's recorder and
    ``on_result(result)`` is called.  Returns False when the pool itself
    failed (see :data:`_POOL_FAILURES`); the caller then does the remaining
    work in-process, which is bit-identical anyway.  Any other task error
    (``ValidationError`` etc.) is re-raised once every other task has
    finished and been handed to ``on_result`` — retrying it in-process would
    just raise the same error more slowly.
    """
    recorder = get_recorder()
    task_error: Optional[BaseException] = None
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent) as executor:
            futures = [executor.submit(task, *args) for args in arguments]
            for future in as_completed(futures):
                try:
                    result, telemetry = future.result()
                except _POOL_FAILURES:
                    raise
                except Exception as error:
                    if task_error is None:
                        task_error = error
                    continue
                if recorder.enabled:
                    recorder.merge(telemetry)
                on_result(result)
    except _POOL_FAILURES:
        return False
    if task_error is not None:
        raise task_error
    return True


@dataclass(frozen=True)
class GenerationReport:
    """What the engine did for the most recent :meth:`PopulationEngine.generate`."""

    num_hosts: int
    workers: int
    duration_seconds: float
    cache_hit: bool
    cache_path: Optional[str] = None


@dataclass(frozen=True)
class EngineStats:
    """Cumulative generation accounting over an engine's lifetime.

    ``generations`` counts populations actually generated from scratch;
    ``cache_hits`` counts populations served from the on-disk cache.  Sweep
    campaigns use these to verify that scenarios sharing a population
    configuration triggered exactly one generation.
    """

    generations: int = 0
    cache_hits: int = 0

    @property
    def requests(self) -> int:
        """Total :meth:`PopulationEngine.generate` calls."""
        return self.generations + self.cache_hits


class PopulationEngine:
    """Generates enterprise populations in parallel, with on-disk caching.

    Parameters
    ----------
    workers:
        Worker-process count.  ``1`` forces serial generation; ``None`` means
        auto (``REPRO_ENGINE_WORKERS`` environment override, else the CPU
        count capped at :data:`MAX_AUTO_WORKERS`).  Output is bit-identical
        for every setting.
    cache_dir:
        Directory for the on-disk population cache.  ``None`` consults
        ``REPRO_CACHE_DIR``; caching is disabled when neither is set (unless
        ``use_cache=True`` explicitly requests the default location).
    use_cache:
        Force caching on or off; ``None`` enables it exactly when a cache
        directory was resolved.
    min_parallel_hosts:
        Populations smaller than this generate serially regardless of the
        worker count (the pool would cost more than it saves).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: Optional[bool] = None,
        min_parallel_hosts: int = MIN_PARALLEL_HOSTS,
    ) -> None:
        require(workers is None or workers >= 1, "workers must be >= 1")
        require(min_parallel_hosts >= 1, "min_parallel_hosts must be >= 1")
        self._workers = workers if workers is not None else default_worker_count()
        self._min_parallel_hosts = min_parallel_hosts
        resolved_dir = resolve_cache_dir(cache_dir)
        if use_cache is None:
            use_cache = resolved_dir is not None
        if use_cache and resolved_dir is None:
            resolved_dir = DEFAULT_CACHE_DIR
        self._cache = PopulationCache(resolved_dir) if use_cache else None
        self._last_report: Optional[GenerationReport] = None
        self._stats = EngineStats()

    @classmethod
    def from_env(cls) -> "PopulationEngine":
        """Engine configured purely from the environment.

        With no ``REPRO_ENGINE_WORKERS`` / ``REPRO_CACHE_DIR`` set this
        matches the historical ``generate_enterprise`` behaviour for test
        populations (serial below :data:`MIN_PARALLEL_HOSTS`, no caching) —
        and is still bit-identical above it.
        """
        return cls()

    @classmethod
    def from_flags(
        cls,
        workers: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        no_cache: bool = False,
    ) -> "PopulationEngine":
        """Engine from the canonical ``--workers/--cache-dir/--no-cache`` flags.

        The one construction rule every command-line surface (the ``repro``
        CLI and the examples) shares: an explicit ``--workers`` request
        overrides the small-population serial heuristic (the output is
        bit-identical either way), and ``--no-cache`` wins over any cache
        directory or environment default.
        """
        return cls(
            workers=workers,
            cache_dir=cache_dir,
            use_cache=False if no_cache else None,
            **({"min_parallel_hosts": 1} if workers is not None else {}),
        )

    # ----------------------------------------------------------------- state
    @property
    def workers(self) -> int:
        """Configured worker-process count."""
        return self._workers

    @property
    def cache(self) -> Optional[PopulationCache]:
        """The population cache, or None when caching is disabled."""
        return self._cache

    @property
    def last_report(self) -> Optional[GenerationReport]:
        """Report for the most recent :meth:`generate` call."""
        return self._last_report

    @property
    def stats(self) -> EngineStats:
        """Cumulative generation/cache-hit accounting for this engine."""
        return self._stats

    def reset_stats(self) -> None:
        """Zero the cumulative accounting (e.g. between sweep runs)."""
        self._stats = EngineStats()

    # ------------------------------------------------------------- generation
    def generate(
        self,
        config: Optional[EnterpriseConfig] = None,
        roles: Optional[Mapping[int, UserRole]] = None,
    ) -> EnterprisePopulation:
        """Return the population for ``config``, from cache when possible."""
        config = config if config is not None else EnterpriseConfig()
        started = monotonic_now()

        with trace_span(
            "engine.generate", num_hosts=config.num_hosts, num_weeks=config.num_weeks
        ) as span:
            if self._cache is not None:
                cached = self._cache.load(config, roles)
                if cached is not None:
                    span.set(cache_hit=True)
                    add_count("engine.cache.hits")
                    duration = monotonic_now() - started
                    self._last_report = GenerationReport(
                        num_hosts=len(cached),
                        workers=0,
                        duration_seconds=duration,
                        cache_hit=True,
                        cache_path=str(self._cache.path_for(config, roles)),
                    )
                    self._stats = replace(self._stats, cache_hits=self._stats.cache_hits + 1)
                    logger.info(
                        "population served from cache: %d hosts in %.3fs",
                        len(cached),
                        duration,
                    )
                    return cached
                add_count("engine.cache.misses")

            span.set(cache_hit=False)
            workers = self._effective_workers(config.num_hosts)
            if workers > 1:
                profiles, matrices, workers = self._generate_parallel(
                    config, roles or {}, workers
                )
            else:
                profiles, matrices = self._generate_serial(config, roles or {})
            population = EnterprisePopulation(
                config=config, profiles=profiles, matrices=matrices
            )

            cache_path: Optional[str] = None
            if self._cache is not None:
                stored = self._cache.store(population, roles)
                cache_path = str(stored) if stored is not None else None
            duration = monotonic_now() - started
            self._last_report = GenerationReport(
                num_hosts=len(population),
                workers=workers,
                duration_seconds=duration,
                cache_hit=False,
                cache_path=cache_path,
            )
            self._stats = replace(self._stats, generations=self._stats.generations + 1)
            add_count("engine.populations_generated")
            logger.info(
                "population generated: %d hosts on %d worker(s) in %.3fs",
                len(population),
                workers,
                duration,
            )
            return population

    def generate_sharded(
        self,
        config: Optional[EnterpriseConfig] = None,
        roles: Optional[Mapping[int, UserRole]] = None,
        hosts_per_shard: Optional[int] = None,
        max_resident_shards: Optional[int] = None,
    ):
        """Return a lazily resolved :class:`~repro.engine.sharded.ShardedPopulation`.

        The scale-out entry point: nothing is generated up front.  Shards are
        produced the first time an evaluation touches one of their hosts —
        mapped zero-copy from the cache's ``.rpopd`` layout when present,
        regenerated deterministically otherwise — and at most
        ``max_resident_shards`` stay resident.  With caching enabled, freshly
        generated shards are persisted so later runs map them directly, and
        a request that needs several missing shards at once builds them on
        this engine's worker pool, each worker writing its own shard file.
        The layout is the one :meth:`generate` stores for ``config``, so in
        the default geometry a configuration used both ways is generated and
        stored once.
        """
        from repro.engine.sharded import DEFAULT_MAX_RESIDENT_SHARDS, ShardedPopulation

        config = config if config is not None else EnterpriseConfig()
        directory = self._cache.path_for(config, roles) if self._cache is not None else None
        return ShardedPopulation.generate(
            config,
            directory=directory,
            hosts_per_shard=(
                hosts_per_shard if hosts_per_shard is not None else DEFAULT_HOSTS_PER_SHARD
            ),
            max_resident_shards=(
                max_resident_shards
                if max_resident_shards is not None
                else DEFAULT_MAX_RESIDENT_SHARDS
            ),
            roles=roles,
            engine=self,
        )

    def _effective_workers(self, num_hosts: int) -> int:
        if num_hosts < self._min_parallel_hosts:
            return 1
        return min(self._workers, num_hosts)

    def _generate_serial(
        self, config: EnterpriseConfig, roles: Mapping[int, UserRole]
    ) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]:
        results = _generate_host_chunk(config, range(config.num_hosts), roles)
        return _merge_results(results)

    def _generate_parallel(
        self,
        config: EnterpriseConfig,
        roles: Mapping[int, UserRole],
        workers: int,
    ) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix], int]:
        """Fan host chunks out across a process pool.

        Returns the merged results plus the worker count actually used: any
        pool failure (construction, spawning, a broken pool mid-flight — the
        kinds of errors restricted environments raise) falls back to serial
        generation, which is bit-identical anyway, and reports ``1``.
        """
        chunks = _chunk_host_ids(config.num_hosts, workers)
        results: List[Tuple[int, HostProfile, FeatureMatrix]] = []
        arguments = [(config, chunk, dict(roles)) for chunk in chunks]
        if not _run_pool(_generate_host_chunk_task, arguments, workers, results.extend):
            profiles, matrices = self._generate_serial(config, roles)
            return profiles, matrices, 1
        profiles, matrices = _merge_results(results)
        return profiles, matrices, workers


def _merge_results(
    results: Sequence[Tuple[int, HostProfile, FeatureMatrix]],
) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]:
    """Generated host triples as ``(profiles, matrices)`` keyed in host order."""
    profiles: Dict[int, HostProfile] = {}
    matrices: Dict[int, FeatureMatrix] = {}
    for host_id, profile, matrix in sorted(results, key=lambda item: item[0]):
        profiles[host_id] = profile
        matrices[host_id] = matrix
    return profiles, matrices


def _chunk_host_ids(num_hosts: int, workers: int) -> List[List[int]]:
    """Split host ids into roughly even contiguous chunks, several per worker.

    Over-splitting (4 chunks per worker) keeps the pool busy when some chunks
    contain hosts that are more expensive to generate than others.
    """
    num_chunks = min(max(workers * 4, 1), num_hosts)
    chunk_size = -(-num_hosts // num_chunks)
    return [
        list(range(start, min(start + chunk_size, num_hosts)))
        for start in range(0, num_hosts, chunk_size)
    ]
