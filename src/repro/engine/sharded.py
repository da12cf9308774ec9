"""Sharded population storage: million-host populations without the memory.

A sharded population lives in a ``population-<key>.rpopd/`` layout — the
one population format, see :mod:`repro.engine.serialization` — whose shard
files each hold one fixed-size host range.

:class:`ShardedPopulation` offers the host accessors of
:class:`~repro.workload.enterprise.EnterprisePopulation` (``profile``,
``matrix``, ``matrices``) but keeps only a bounded LRU set of shards
resident.  Shards are produced on demand: from their ``.rpsh`` file when it
exists (zero-copy mapping), otherwise by regenerating exactly that host
range — per-host streams derive from ``(config.seed, host_id)`` alone, so a
shard generated in isolation is bit-identical to the same hosts cut out of a
monolithic generation.  When the population is backed by a directory,
freshly generated shards are persisted and the manifest updated, so a later
open resumes where this one stopped.
A population made by :meth:`~repro.engine.PopulationEngine.generate_sharded`
builds several missing shards at once on that engine's worker pool: each
worker writes its own shard file and returns only the manifest record.  A
shard file the population did not write itself is checked against its
manifest hash the first time it is loaded, and regenerated on a mismatch.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.engine.engine import (
    PopulationEngine,
    _generate_host_chunk,
    _merge_results,
    _run_pool,
)
from repro.engine.serialization import (
    DEFAULT_HOSTS_PER_SHARD,
    ShardEntry,
    _file_sha256,
    _new_manifest,
    _read_shard,
    _write_manifest,
    _write_shard_file,
    config_from_payload,
    config_payload,
    read_manifest,
)
from repro.features.timeseries import FeatureMatrix, PopulationFrame
from repro.telemetry import add_count, child_recorder, set_gauge, trace_span
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import EnterpriseConfig
from repro.workload.profiles import HostProfile, UserRole

#: Default number of shards kept resident by :class:`ShardedPopulation`.
DEFAULT_MAX_RESIDENT_SHARDS = 4

PathLike = Union[str, Path]


def _generate_shard_hosts(
    config: EnterpriseConfig,
    index: int,
    host_ids: Sequence[int],
    roles: Mapping[int, UserRole],
) -> ShardEntry:
    """Generate the hosts of shard ``index``, keyed in host order."""
    with trace_span("engine.shard.generate", shard=index, num_hosts=len(host_ids)):
        return _merge_results(_generate_host_chunk(config, host_ids, roles))


def _build_shard_task(
    config: EnterpriseConfig,
    directory: Path,
    index: int,
    host_ids: Sequence[int],
    roles: Mapping[int, UserRole],
) -> Tuple[Tuple[int, Dict[str, Any]], Dict[str, Any]]:
    """Pool entry point: generate shard ``index`` and write its ``.rpsh`` file.

    Only ``(index, manifest record)`` and the worker's telemetry snapshot
    travel back: the parent maps the file the worker wrote, so no bin value
    crosses the process boundary.
    """
    with child_recorder() as recorder:
        profiles, matrices = _generate_shard_hosts(config, index, host_ids, roles)
        record = _write_shard_file(directory, index, host_ids, profiles, matrices)
    return (index, record), recorder.snapshot()


def _entry_nbytes(entry: ShardEntry) -> int:
    """Float64-bin footprint of one resident shard entry, in bytes.

    Counts the feature-matrix payload only (profiles are negligible next to
    ``hosts x features x bins`` of float64), matching what the ``.rpsh``
    block on disk holds and what an eviction actually releases.
    """
    _, matrices = entry
    if not matrices:
        return 0
    reference = next(iter(matrices.values()))
    return len(matrices) * len(reference.features) * reference.num_bins * 8


class ShardedPopulation:
    """A population resolved shard by shard, with bounded residency.

    Offers the host accessors of
    :class:`~repro.workload.enterprise.EnterprisePopulation`.  At most
    ``max_resident_shards`` shards are held at a time (least recently used
    evicted first), and mapped shards only page in the bins actually touched — so a million-host population can be opened,
    sampled and evaluated without the full host array ever existing in
    memory.

    ``engine`` is the :class:`~repro.engine.PopulationEngine` that created
    the population, if any.  A directory-backed population with one builds
    the missing shards of a multi-shard request (:meth:`matrices_for`,
    :meth:`matrices`, :meth:`materialize`) on that engine's worker pool,
    under the engine's worker count and serial floor.
    """

    def __init__(
        self,
        config: EnterpriseConfig,
        directory: Optional[Path],
        manifest: dict,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
        roles: Optional[Mapping[int, UserRole]] = None,
        engine: Optional[PopulationEngine] = None,
    ) -> None:
        require(max_resident_shards >= 1, "max_resident_shards must be >= 1")
        self._config = config
        self._directory = directory
        self._manifest = manifest
        self._hosts_per_shard = int(manifest["hosts_per_shard"])
        self._num_hosts = int(manifest["num_hosts"])
        self._max_resident = max_resident_shards
        self._roles: Mapping[int, UserRole] = dict(roles) if roles else {}
        #: shard index -> (profiles, matrices); insertion order is LRU order.
        self._resident: Dict[int, ShardEntry] = {}
        self._engine = engine
        #: Shards whose file is known to match its manifest hash: written by
        #: this population (or its workers), or hashed once on first load.
        self._verified: Set[int] = set()

    # --------------------------------------------------------------- opening
    @classmethod
    def open(
        cls,
        directory: PathLike,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
    ) -> "ShardedPopulation":
        """Open an existing ``.rpopd`` directory (shards load lazily)."""
        directory = Path(directory)
        manifest = read_manifest(directory)
        config = config_from_payload(manifest["config"])
        return cls(config, directory, manifest, max_resident_shards=max_resident_shards)

    @classmethod
    def generate(
        cls,
        config: EnterpriseConfig,
        directory: Optional[PathLike] = None,
        hosts_per_shard: int = DEFAULT_HOSTS_PER_SHARD,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
        roles: Optional[Mapping[int, UserRole]] = None,
        engine: Optional[PopulationEngine] = None,
    ) -> "ShardedPopulation":
        """A lazily generated sharded population for ``config``.

        With a ``directory``, existing shard files are reused (resuming a
        partially written population) and newly generated shards are
        persisted there; without one, shards are generated in memory on
        demand and simply evicted when residency runs out.  Either way only
        the shards an evaluation touches are ever produced.
        """
        require(hosts_per_shard >= 1, "hosts_per_shard must be >= 1")
        if directory is not None:
            directory = Path(directory)
            try:
                manifest = read_manifest(directory)
            except ValidationError:
                directory.mkdir(parents=True, exist_ok=True)
                manifest = _new_manifest(config, hosts_per_shard)
                _write_manifest(directory, manifest)
            else:
                require(
                    manifest["config"] == config_payload(config)
                    and int(manifest["hosts_per_shard"]) == hosts_per_shard,
                    "existing sharded population does not match the requested config",
                )
        else:
            manifest = _new_manifest(config, hosts_per_shard)
        return cls(
            config,
            directory,
            manifest,
            max_resident_shards=max_resident_shards,
            roles=roles,
            engine=engine,
        )

    # ----------------------------------------------------------------- basic
    @property
    def config(self) -> EnterpriseConfig:
        """The configuration the population was generated with."""
        return self._config

    @property
    def directory(self) -> Optional[Path]:
        """Backing ``.rpopd`` directory (None for purely in-memory laziness)."""
        return self._directory

    @property
    def num_shards(self) -> int:
        """Total number of host-range shards."""
        return len(self._manifest["shards"])

    @property
    def hosts_per_shard(self) -> int:
        """Host-range size per shard (the last shard may be smaller)."""
        return self._hosts_per_shard

    @property
    def resident_shards(self) -> Tuple[int, ...]:
        """Currently resident shard indices, least recently used first."""
        return tuple(self._resident)

    @property
    def host_ids(self) -> range:
        """Host identifiers (always the contiguous range ``0..num_hosts``)."""
        return range(self._num_hosts)

    def __len__(self) -> int:
        return self._num_hosts

    def __iter__(self) -> Iterator[int]:
        return iter(self.host_ids)

    # ------------------------------------------------------------ shard state
    def shard_of(self, host_id: int) -> int:
        """Index of the shard holding ``host_id``."""
        require(0 <= host_id < self._num_hosts, "host_id out of range")
        return host_id // self._hosts_per_shard

    def _shard_host_range(self, index: int) -> range:
        first = index * self._hosts_per_shard
        return range(first, min(first + self._hosts_per_shard, self._num_hosts))

    def _shard(self, index: int) -> ShardEntry:
        if index in self._resident:
            # Refresh LRU position.
            entry = self._resident.pop(index)
            self._resident[index] = entry
            return entry
        entry = self._load_or_generate_shard(index)
        self._resident[index] = entry
        add_count("engine.shards_loaded")
        while len(self._resident) > self._max_resident:
            self._resident.pop(next(iter(self._resident)))
        # Residency only changes on this path (load + possible eviction), so
        # the LRU-refresh fast path above stays gauge-free.
        self._update_residency_gauges()
        return entry

    def _update_residency_gauges(self) -> None:
        """Publish the LRU's current footprint as resource gauges."""
        set_gauge("engine.shards_resident", float(len(self._resident)))
        set_gauge(
            "engine.shard_bytes_resident",
            float(sum(_entry_nbytes(entry) for entry in self._resident.values())),
        )

    def _load_or_generate_shard(self, index: int) -> ShardEntry:
        record = self._manifest["shards"][index]
        if self._directory is not None and record is not None:
            path = self._directory / record["file"]
            if path.is_file():
                with trace_span("engine.shard.load", shard=index):
                    try:
                        # A file this population did not write is hashed
                        # once before its bins are trusted.
                        intact = index in self._verified or self.verify_shard(index)
                        entry = _read_shard(path) if intact else None
                    except (ValidationError, OSError, ValueError, KeyError):
                        entry = None
                if entry is not None:
                    self._verified.add(index)
                    return entry
        # No file, or a corrupt one: regenerate (and rewrite) the shard.
        return self._generate_shard(index)

    def _generate_shard(self, index: int) -> ShardEntry:
        host_range = self._shard_host_range(index)
        profiles, matrices = _generate_shard_hosts(self._config, index, host_range, self._roles)
        if self._directory is not None:
            try:
                record = _write_shard_file(
                    self._directory, index, host_range, profiles, matrices
                )
            except OSError:
                # An unwritable cache never discards generated data; the
                # shard simply stays memory-resident for this process.
                return profiles, matrices
            self._record_shard(index, record)
            # Re-open through the mapped file so the resident copy is the
            # zero-copy view, not the generation-sized arrays.
            try:
                return _read_shard(self._directory / record["file"])
            except (ValidationError, OSError, ValueError, KeyError):
                pass
        return profiles, matrices

    def _record_shard(self, index: int, record: Dict[str, Any]) -> None:
        """Enter a shard file this population or one of its workers wrote."""
        self._manifest["shards"][index] = record
        self._verified.add(index)
        try:
            _write_manifest(self._directory, self._manifest)
        except OSError:
            pass

    def _on_disk(self, index: int) -> bool:
        record = self._manifest["shards"][index]
        return record is not None and (self._directory / record["file"]).is_file()

    def _build_missing_shards(self, indices: Iterable[int]) -> None:
        """Build the missing shards among ``indices`` on the engine's pool.

        Each worker writes one shard's file; its manifest record is entered
        as the task finishes, so an interrupted or failed build keeps every
        finished shard and a reopen rebuilds only the rest.  The shards then
        load through :meth:`_shard` like any other file.  Whatever this does
        not build — a population without an engine or a directory, a single
        missing shard, fewer missing hosts than the engine's serial floor, a
        pool that cannot start — :meth:`_shard` builds in-process.
        """
        if self._engine is None or self._directory is None:
            return
        missing = [
            index
            for index in indices
            if index not in self._resident and not self._on_disk(index)
        ]
        num_hosts = sum(len(self._shard_host_range(index)) for index in missing)
        workers = min(self._engine._effective_workers(num_hosts), len(missing))
        if workers < 2:
            return
        arguments = [
            (self._config, self._directory, index, self._shard_host_range(index), self._roles)
            for index in missing
        ]
        _run_pool(
            _build_shard_task, arguments, workers, lambda result: self._record_shard(*result)
        )

    def verify_shard(self, index: int) -> bool:
        """Check the shard file on disk against its manifest content hash."""
        record = self._manifest["shards"][index]
        if record is None or self._directory is None:
            return False
        path = self._directory / record["file"]
        if not path.is_file():
            return False
        return _file_sha256(path) == record["sha256"]

    # ------------------------------------------------------------- accessors
    def profile(self, host_id: int) -> HostProfile:
        """Profile of ``host_id``."""
        profiles, _ = self._shard(self.shard_of(host_id))
        return profiles[host_id]

    def matrix(self, host_id: int) -> FeatureMatrix:
        """Feature matrix of ``host_id``."""
        _, matrices = self._shard(self.shard_of(host_id))
        return matrices[host_id]

    def matrices(self) -> Mapping[int, FeatureMatrix]:
        """All feature matrices keyed by host id.

        A one-shard population mapped from its file returns that shard's
        read-only :class:`~repro.features.timeseries.PopulationFrame`.
        Otherwise this materialises every shard's matrix mapping into one
        dict (the arrays themselves stay mmap-backed) — fine at experiment
        scale, but million-host callers should iterate :meth:`iter_shards` or
        sample instead.
        """
        self._build_missing_shards(range(self.num_shards))
        combined: Dict[int, FeatureMatrix] = {}
        for index in range(self.num_shards):
            _, matrices = self._shard(index)
            if self.num_shards == 1 and isinstance(matrices, PopulationFrame):
                return matrices
            combined.update(matrices)
        return combined

    def matrices_for(self, host_ids: Sequence[int]) -> Dict[int, FeatureMatrix]:
        """Feature matrices for ``host_ids`` only (shards resolved in order).

        The sampled-evaluation entry point: grouping the requested hosts by
        shard keeps residency bounded however large the population is.
        """
        by_shard: Dict[int, List[int]] = {}
        for host_id in host_ids:
            by_shard.setdefault(self.shard_of(host_id), []).append(host_id)
        self._build_missing_shards(sorted(by_shard))
        combined: Dict[int, FeatureMatrix] = {}
        for index in sorted(by_shard):
            _, matrices = self._shard(index)
            for host_id in by_shard[index]:
                combined[host_id] = matrices[host_id]
        return combined

    def iter_shards(self) -> Iterator[Tuple[range, Mapping[int, FeatureMatrix]]]:
        """Iterate ``(host_range, matrices)`` shard by shard."""
        for index in range(self.num_shards):
            _, matrices = self._shard(index)
            yield self._shard_host_range(index), matrices

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedPopulation(hosts={self._num_hosts}, shards={self.num_shards}, "
            f"resident={len(self._resident)})"
        )

