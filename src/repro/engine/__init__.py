"""Population engine: parallel generation plus on-disk caching.

The engine subsystem decouples *how* enterprise populations are produced
(vectorised per-host generation, process-pool fan-out, content-addressed
caching) from *what* consumes them (experiments, benchmarks, examples).
Everything goes through :class:`PopulationEngine`; determinism is absolute —
the same :class:`~repro.workload.enterprise.EnterpriseConfig` yields
bit-identical populations whether generated serially, in parallel, or loaded
back from the cache.
"""

from repro.engine.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    PopulationCache,
    VerifiedShards,
    population_cache_key,
    resolve_cache_dir,
)
from repro.engine.engine import (
    MAX_AUTO_WORKERS,
    MIN_PARALLEL_HOSTS,
    WORKERS_ENV,
    EngineStats,
    GenerationReport,
    PopulationEngine,
    default_worker_count,
)
from repro.engine.serialization import (
    DEFAULT_HOSTS_PER_SHARD,
    POPULATION_FORMAT_VERSION,
    read_manifest,
    write_population_sharded,
)
from repro.engine.sharded import DEFAULT_MAX_RESIDENT_SHARDS, ShardedPopulation

__all__ = [
    "PopulationEngine",
    "GenerationReport",
    "EngineStats",
    "PopulationCache",
    "VerifiedShards",
    "population_cache_key",
    "resolve_cache_dir",
    "ShardedPopulation",
    "write_population_sharded",
    "read_manifest",
    "DEFAULT_HOSTS_PER_SHARD",
    "DEFAULT_MAX_RESIDENT_SHARDS",
    "default_worker_count",
    "POPULATION_FORMAT_VERSION",
    "CACHE_DIR_ENV",
    "WORKERS_ENV",
    "MIN_PARALLEL_HOSTS",
    "MAX_AUTO_WORKERS",
    "DEFAULT_CACHE_DIR",
]
