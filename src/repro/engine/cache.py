"""On-disk population cache keyed by a content hash of the configuration.

Generating the paper-scale population is pure function of
(:class:`~repro.workload.enterprise.EnterpriseConfig`, explicit role
overrides), so a content hash of those inputs fully identifies the output.
The cache stores one ``.rpopd`` layout per key (see
:mod:`repro.engine.serialization`), hash-checks every shard it reads back
(once per :class:`VerifiedShards` memo), and treats any unreadable,
stale-format or corrupt layout as a miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import warnings
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.engine.serialization import (
    DEFAULT_HOSTS_PER_SHARD,
    POPULATION_FORMAT_VERSION,
    FileIdentity,
    ShardEntry,
    _file_identity,
    _hash_file,
    _read_shard,
    config_from_payload,
    config_payload,
    read_manifest,
    write_population_sharded,
)
from repro.telemetry import set_gauge, trace_span
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation
from repro.workload.profiles import UserRole

logger = logging.getLogger(__name__)

#: Environment variable naming the cache directory (enables caching when set).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory used when caching is requested without a location.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro" / "populations"

PathLike = Union[str, Path]


def population_cache_key(
    config: EnterpriseConfig, roles: Optional[Mapping[int, UserRole]] = None
) -> str:
    """Content hash identifying the population generated from these inputs."""
    payload = {
        "format": POPULATION_FORMAT_VERSION,
        "config": config_payload(config),
        "roles": (
            {str(host_id): role.value for host_id, role in sorted(roles.items())}
            if roles
            else None
        ),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def resolve_cache_dir(cache_dir: Optional[PathLike] = None) -> Optional[Path]:
    """The cache directory to use: explicit argument, else ``REPRO_CACHE_DIR``.

    ``~`` is expanded in both, so ``cache_dir="~/.cache/repro/populations"``
    (the README example) and a tilde in the environment variable land in the
    home directory instead of creating a literal ``~`` directory.
    """
    if cache_dir is not None:
        return Path(cache_dir).expanduser()
    from_env = os.environ.get(CACHE_DIR_ENV)
    return Path(from_env).expanduser() if from_env else None


class VerifiedShards:
    """The shard files one owner has hashed against their manifest records.

    :class:`~repro.sweeps.SweepRunner` keeps one for its lifetime and hands
    it to every :meth:`PopulationEngine.generate
    <repro.engine.PopulationEngine.generate>` call, so a layout it reads
    again is not hashed again.  For each shard path it keeps the manifest
    SHA-256 the file matched and the ``(st_dev, st_ino, st_size,
    st_mtime_ns)`` of the handle it was hashed from.  :meth:`check` skips the
    hash only while all of them still match: a shard replaced by rename, a
    rewrite that changes its size or modification time, or a manifest that
    records another hash is hashed again.  (A rewrite in place that keeps
    the size and lands within the file system's timestamp granularity is
    not seen; the cache itself replaces a shard only by rename.)
    """

    def __init__(self) -> None:
        self._hashed: Dict[Path, Tuple[str, FileIdentity]] = {}

    def check(self, path: Path, sha256: str) -> None:
        """Raise ``ValidationError`` unless the file at ``path`` hashes to ``sha256``.

        Raises ``OSError`` when the file cannot be read.
        """
        hashed = self._hashed.get(path)
        if hashed is not None and hashed == (sha256, _file_identity(os.stat(path))):
            return
        digest, identity = _hash_file(path)
        require(digest == sha256, f"shard {path} does not match its manifest hash")
        self._hashed[path] = (sha256, identity)


class PopulationCache:
    """A directory of ``.rpopd`` population layouts addressed by content hash."""

    def __init__(self, directory: PathLike) -> None:
        self._directory = Path(directory).expanduser()

    @property
    def directory(self) -> Path:
        """Root directory of the cache."""
        return self._directory

    def path_for(
        self, config: EnterpriseConfig, roles: Optional[Mapping[int, UserRole]] = None
    ) -> Path:
        """The ``.rpopd`` directory a population with these inputs is stored under.

        :meth:`~repro.engine.PopulationEngine.generate` and
        :meth:`~repro.engine.PopulationEngine.generate_sharded` share it, so a
        configuration used both whole and sampled is stored once.
        """
        key = population_cache_key(config, roles)
        return self._directory / f"population-{key[:32]}.rpopd"

    def load(
        self,
        config: EnterpriseConfig,
        roles: Optional[Mapping[int, UserRole]] = None,
        verified: Optional[VerifiedShards] = None,
    ) -> Optional[EnterprisePopulation]:
        """Return the cached population, or None on a miss.

        Every shard is hashed against its manifest record before it is read,
        unless ``verified`` already hashed the same unchanged file against
        the same record.  A missing or unreadable manifest, one for another
        config, and a shard with no record, no file or another hash all make
        a miss: the engine then regenerates the population and :meth:`store`
        rewrites the layout.
        """
        directory = self.path_for(config, roles)
        with trace_span("engine.cache.read") as span:
            if not directory.is_dir():
                span.set(hit=False)
                logger.debug("population cache miss: %s", directory)
                return None
            try:
                with trace_span("engine.cache.deserialize"):
                    population = _read_layout(
                        directory,
                        config,
                        verified if verified is not None else VerifiedShards(),
                    )
            except (ValidationError, OSError, ValueError, KeyError):
                span.set(hit=False)
                logger.debug("population cache layout unreadable, treating as miss: %s", directory)
                return None
            span.set(hit=True)
            logger.debug("population cache hit: %s (%d hosts)", directory, len(population))
            return population

    def entry_count(self) -> int:
        """Number of cached populations (one per ``.rpopd`` directory)."""
        return len(self._layouts())

    def store(
        self,
        population: EnterprisePopulation,
        roles: Optional[Mapping[int, UserRole]] = None,
    ) -> Optional[Path]:
        """Write ``population`` as its layout; returns the layout directory.

        An existing layout for the same config keeps its shard geometry, so
        the shards a lazily resolved population already recorded are simply
        rewritten in place; otherwise the population is cut into
        :data:`~repro.engine.serialization.DEFAULT_HOSTS_PER_SHARD`-host
        shards.  Shard files are replaced by rename before the manifest is,
        so an interrupted store leaves a layout that still verifies or that
        the next :meth:`load` misses.

        An unwritable or full cache location must never discard a generated
        population, so write failures emit a warning and return None (the
        next run simply misses the cache), mirroring how :meth:`load` treats
        unreadable layouts as misses.
        """
        config = population.config
        directory = self.path_for(config, roles)
        with trace_span("engine.cache.write"):
            try:
                hosts_per_shard = _matching_manifest(directory, config)["hosts_per_shard"]
            except ValidationError:
                hosts_per_shard = DEFAULT_HOSTS_PER_SHARD
            try:
                with trace_span("engine.cache.serialize"):
                    write_population_sharded(directory, population, hosts_per_shard)
            except OSError as error:
                warnings.warn(
                    f"population cache write to {directory} failed: {error}", stacklevel=2
                )
                return None
        set_gauge("engine.cache_entries", float(self.entry_count()))
        logger.debug("population cached: %s (%d hosts)", directory, len(population))
        return directory

    def _layouts(self) -> List[Path]:
        if not self._directory.is_dir():
            return []
        return [path for path in self._directory.glob("population-*.rpopd") if path.is_dir()]


def _matching_manifest(directory: Path, config: EnterpriseConfig) -> dict:
    """The manifest of the layout at ``directory`` if it holds ``config``.

    Raises ``ValidationError`` when there is no readable manifest or it
    records another configuration.
    """
    manifest = read_manifest(directory)
    require(
        manifest["config"] == config_payload(config),
        f"cached layout {directory} holds another configuration",
    )
    return manifest


def _read_layout(
    directory: Path, config: EnterpriseConfig, verified: VerifiedShards
) -> EnterprisePopulation:
    """Every shard of the layout at ``directory``, each checked through ``verified``.

    A one-shard layout (every population of up to
    :data:`~repro.engine.serialization.DEFAULT_HOSTS_PER_SHARD` hosts in the
    default geometry) is served over its shard's profile table and
    :class:`~repro.features.timeseries.PopulationFrame`; the profiles and
    matrices of several shards are merged into dicts.  Raises
    ``ValidationError`` (or ``OSError`` for a missing shard file) unless
    every shard is recorded and intact.
    """
    manifest = _matching_manifest(directory, config)
    shards: List[ShardEntry] = []
    for index, record in enumerate(manifest["shards"]):
        require(record is not None, f"cached layout {directory} has no shard {index}")
        path = directory / record["file"]
        verified.check(path, record["sha256"])
        shards.append(_read_shard(path))
    if len(shards) == 1:
        profiles, matrices = shards[0]
    else:
        profiles = {h: p for shard_profiles, _ in shards for h, p in shard_profiles.items()}
        matrices = {h: m for _, shard_matrices in shards for h, m in shard_matrices.items()}
    return EnterprisePopulation(
        config=config_from_payload(manifest["config"]), profiles=profiles, matrices=matrices
    )
