"""Sharded population storage: million-host populations without the memory.

A sharded population lives in a ``population-<key>.rpopd/`` directory:

* ``manifest.json`` — format version, the full
  :class:`~repro.workload.enterprise.EnterpriseConfig` payload, the shard
  geometry and, per written shard, its file name and SHA-256 content hash.
* ``shard-NNNNN.rpsh`` — one fixed-size host range each.  A shard file holds
  the profiles of its hosts followed by one contiguous
  ``(num_hosts, num_features, num_bins)`` little-endian float64 block, so the
  whole feature payload of a shard maps straight into a
  :class:`numpy.memmap` — loading a shard never copies bin values.

:class:`ShardedPopulation` mirrors the
:class:`~repro.workload.enterprise.EnterprisePopulation` accessors but keeps
only a bounded LRU set of shards resident.  Shards are produced on demand:
from their ``.rpsh`` file when it exists (zero-copy mmap), otherwise by
regenerating exactly that host range — per-host streams derive from
``(config.seed, host_id)`` alone, so a shard generated in isolation is
bit-identical to the same hosts cut out of a monolithic generation.  When the
population is backed by a directory, freshly generated shards are persisted
and the manifest updated, so a later open resumes where this one stopped.
A population made by :meth:`~repro.engine.PopulationEngine.generate_sharded`
builds several missing shards at once on that engine's worker pool: each
worker writes its own shard file and returns only the manifest record.  A
shard file the population did not write itself is checked against its
manifest hash the first time it is loaded, and regenerated on a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
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

import numpy as np

from repro.engine.engine import (
    PopulationEngine,
    _generate_host_chunk,
    _merge_results,
    _run_pool,
)
from repro.engine.serialization import (
    POPULATION_FORMAT_VERSION,
    _FEATURE_ORDER,
    _HOST_STRUCT,
    _INTENSITY_STRUCT,
    _MATRIX_STRUCT,
    _ROLE_ORDER,
    _feature_at,
    _read_exact,
    _role_at,
    config_payload,
)
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.stats.empirical import EmpiricalDistribution
from repro.telemetry import add_count, child_recorder, set_gauge, trace_span
from repro.traces.serialization import read_header, write_header
from repro.utils.timeutils import BinSpec
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation
from repro.workload.profiles import FeatureIntensity, HostProfile, UserRole

_SHARD_MAGIC = b"RPSH"
_MANIFEST_NAME = "manifest.json"

#: Default host-range size per shard.  4096 hosts x 6 features x one week of
#: 15-minute bins is ~132 MiB of float64 per five-week shard — big enough to
#: amortise per-shard overhead, small enough that a handful stay resident.
DEFAULT_HOSTS_PER_SHARD = 4096

#: Default number of shards kept resident by :class:`ShardedPopulation`.
DEFAULT_MAX_RESIDENT_SHARDS = 4

PathLike = Union[str, Path]


def _write_shard(
    path: Path,
    host_ids: Sequence[int],
    profiles: Mapping[int, HostProfile],
    matrices: Mapping[int, FeatureMatrix],
) -> str:
    """Write one shard file; returns its SHA-256 hex digest.

    The shard requires a uniform bin grid and feature set across its hosts
    (every generated population satisfies both), which is what makes the
    value block a single rectangular array.
    """
    reference = matrices[host_ids[0]]
    features = reference.features
    num_bins = reference.num_bins
    bin_spec = reference.series(features[0]).bin_spec

    temporary = path.with_suffix(f".tmp{os.getpid()}")
    try:
        with open(temporary, "wb") as handle:
            sink = _DigestSink(handle)
            write_header(sink, _SHARD_MAGIC, len(host_ids), version=POPULATION_FORMAT_VERSION)
            for host_id in host_ids:
                profile = profiles[host_id]
                matrix = matrices[host_id]
                require(
                    matrix.features == features and matrix.num_bins == num_bins,
                    "sharded populations require a uniform feature set and bin grid",
                )
                sink.write(
                    _HOST_STRUCT.pack(
                        host_id,
                        _ROLE_ORDER.index(profile.role),
                        1 if profile.is_laptop else 0,
                        profile.master_intensity,
                    )
                )
                sink.write(struct.pack("<B", len(profile.intensities)))
                for feature, intensity in profile.intensities.items():
                    sink.write(struct.pack("<B", _FEATURE_ORDER.index(feature)))
                    sink.write(
                        _INTENSITY_STRUCT.pack(
                            intensity.scale,
                            intensity.body_sigma,
                            intensity.burst_probability,
                            intensity.burst_alpha,
                        )
                    )
            sink.write(_MATRIX_STRUCT.pack(num_bins, bin_spec.width, bin_spec.origin))
            sink.write(struct.pack("<B", len(features)))
            for feature in features:
                sink.write(struct.pack("<B", _FEATURE_ORDER.index(feature)))
            # Pad the value block to 8-byte alignment so the memmap view is
            # aligned float64.
            padding = (-sink.position) % 8
            if padding:
                sink.write(b"\x00" * padding)
            for host_id in host_ids:
                matrix = matrices[host_id]
                for feature in features:
                    values = np.ascontiguousarray(matrix.series(feature).values, dtype="<f8")
                    sink.write(values.tobytes())
        os.replace(temporary, path)
    finally:
        if temporary.exists():
            temporary.unlink()
    return sink.hexdigest()


class _DigestSink:
    """File-like wrapper feeding everything written through a hash as well."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self._digest = hashlib.sha256()
        self.position = 0

    def write(self, chunk: bytes) -> None:
        self._handle.write(chunk)
        self._digest.update(chunk)
        self.position += len(chunk)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _file_sha256(path: Path) -> str:
    """SHA-256 hex digest of a file, hashed from buffered reads.

    Never through an mmap: hashing a shard must not leave its pages resident.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_shard_file(
    directory: Path,
    index: int,
    host_ids: Sequence[int],
    profiles: Mapping[int, HostProfile],
    matrices: Mapping[int, FeatureMatrix],
) -> Dict[str, Any]:
    """Write shard ``index`` under ``directory``; returns its manifest record."""
    name = _shard_file_name(index)
    digest = _write_shard(directory / name, host_ids, profiles, matrices)
    return {
        "file": name,
        "first_host": host_ids[0],
        "num_hosts": len(host_ids),
        "sha256": digest,
    }


def _generate_shard_hosts(
    config: EnterpriseConfig,
    index: int,
    host_ids: Sequence[int],
    roles: Mapping[int, UserRole],
) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]:
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


def _read_shard(
    path: Path, use_mmap: bool = True
) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]:
    """Read a shard written by :func:`_write_shard`.

    With ``use_mmap`` (the default) the value block is not read at all: each
    host's series wraps a row view of one :class:`numpy.memmap` over the
    file, so bins are paged in only when an evaluation actually touches them.
    """
    with open(path, "rb") as handle:
        num_hosts = read_header(handle, _SHARD_MAGIC, version=POPULATION_FORMAT_VERSION)
        profiles: Dict[int, HostProfile] = {}
        host_ids: List[int] = []
        for _ in range(num_hosts):
            host_id, role_index, is_laptop, master_intensity = _HOST_STRUCT.unpack(
                _read_exact(handle, _HOST_STRUCT.size)
            )
            (num_intensities,) = struct.unpack("<B", _read_exact(handle, 1))
            intensities: Dict[Feature, FeatureIntensity] = {}
            for _ in range(num_intensities):
                (feature_index,) = struct.unpack("<B", _read_exact(handle, 1))
                scale, body_sigma, burst_probability, burst_alpha = _INTENSITY_STRUCT.unpack(
                    _read_exact(handle, _INTENSITY_STRUCT.size)
                )
                intensities[_feature_at(feature_index)] = FeatureIntensity(
                    scale=scale,
                    body_sigma=body_sigma,
                    burst_probability=burst_probability,
                    burst_alpha=burst_alpha,
                )
            profiles[host_id] = HostProfile(
                host_id=host_id,
                role=_role_at(role_index),
                master_intensity=master_intensity,
                intensities=intensities,
                is_laptop=bool(is_laptop),
            )
            host_ids.append(host_id)
        num_bins, bin_width, origin = _MATRIX_STRUCT.unpack(
            _read_exact(handle, _MATRIX_STRUCT.size)
        )
        bin_spec = BinSpec(width=bin_width, origin=origin)
        (num_features,) = struct.unpack("<B", _read_exact(handle, 1))
        features = tuple(
            _feature_at(struct.unpack("<B", _read_exact(handle, 1))[0])
            for _ in range(num_features)
        )
        position = handle.tell()
        values_offset = position + ((-position) % 8)

    shape = (num_hosts, num_features, num_bins)
    if use_mmap:
        block = np.memmap(path, dtype="<f8", mode="r", offset=values_offset, shape=shape)
    else:
        with open(path, "rb") as handle:
            handle.seek(values_offset)
            buffer = _read_exact(handle, num_hosts * num_features * num_bins * 8)
        block = np.frombuffer(buffer, dtype="<f8").reshape(shape)

    matrices: Dict[int, FeatureMatrix] = {}
    for row, host_id in enumerate(host_ids):
        series: Dict[Feature, TimeSeries] = {}
        for column, feature in enumerate(features):
            # The block was validated (non-negative, one-dimensional) when the
            # shard was written and is integrity-checked via its manifest
            # hash, so wrap rows without re-validating: np.all(...) on a
            # memmap would page the whole shard in and defeat the zero-copy
            # load.
            series[feature] = TimeSeries._wrap(block[row, column], bin_spec)
        matrices[host_id] = FeatureMatrix(host_id=host_id, series=series)
    return profiles, matrices


def _entry_nbytes(entry: Tuple[Dict[int, "HostProfile"], Dict[int, FeatureMatrix]]) -> int:
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


def _shard_file_name(index: int) -> str:
    return f"shard-{index:05d}.rpsh"


def _manifest_path(directory: Path) -> Path:
    return directory / _MANIFEST_NAME


def _write_manifest(directory: Path, manifest: dict) -> None:
    path = _manifest_path(directory)
    temporary = path.with_suffix(f".tmp{os.getpid()}")
    temporary.write_text(json.dumps(manifest, sort_keys=True, indent=1))
    os.replace(temporary, path)


def _new_manifest(config: EnterpriseConfig, hosts_per_shard: int) -> dict:
    num_shards = -(-config.num_hosts // hosts_per_shard)
    return {
        "format": POPULATION_FORMAT_VERSION,
        "config": config_payload(config),
        "num_hosts": config.num_hosts,
        "hosts_per_shard": hosts_per_shard,
        "shards": [None] * num_shards,
    }


def write_population_sharded(
    directory: PathLike,
    population: EnterprisePopulation,
    hosts_per_shard: int = DEFAULT_HOSTS_PER_SHARD,
) -> Path:
    """Write an in-memory population as a complete ``.rpopd`` directory."""
    require(hosts_per_shard >= 1, "hosts_per_shard must be >= 1")
    host_ids = population.host_ids
    require(
        host_ids == tuple(range(len(host_ids))),
        "sharded populations require contiguous host ids starting at 0",
    )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = _new_manifest(population.config, hosts_per_shard)
    profiles = {host_id: population.profile(host_id) for host_id in host_ids}
    matrices = population.matrices()
    for index in range(len(manifest["shards"])):
        first = index * hosts_per_shard
        chunk = range(first, min(first + hosts_per_shard, len(host_ids)))
        manifest["shards"][index] = _write_shard_file(
            directory, index, chunk, profiles, matrices
        )
    _write_manifest(directory, manifest)
    return directory


def read_manifest(directory: PathLike) -> dict:
    """Read and validate a ``.rpopd`` manifest; raises ``ValidationError``."""
    path = _manifest_path(Path(directory))
    if not path.is_file():
        raise ValidationError(f"not a sharded population: {path} is missing")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise ValidationError(f"unreadable sharded population manifest: {error}") from None
    if manifest.get("format") != POPULATION_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported sharded population format {manifest.get('format')!r}"
        )
    for key in ("config", "num_hosts", "hosts_per_shard", "shards"):
        if key not in manifest:
            raise ValidationError(f"sharded population manifest missing {key!r}")
    return manifest


class ShardedPopulation:
    """A population resolved shard by shard, with bounded residency.

    Mirrors the :class:`~repro.workload.enterprise.EnterprisePopulation`
    accessors.  At most ``max_resident_shards`` shards are held at a time
    (least recently used evicted first), and mmap-backed shards only page in
    the bins actually touched — so a million-host population can be opened,
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
        use_mmap: bool = True,
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
        self._use_mmap = use_mmap
        self._roles: Mapping[int, UserRole] = dict(roles) if roles else {}
        #: shard index -> (profiles, matrices); insertion order is LRU order.
        self._resident: Dict[int, Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]] = {}
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
        use_mmap: bool = True,
    ) -> "ShardedPopulation":
        """Open an existing ``.rpopd`` directory (shards load lazily)."""
        directory = Path(directory)
        manifest = read_manifest(directory)
        config = _config_from_payload(manifest["config"])
        return cls(
            config,
            directory,
            manifest,
            max_resident_shards=max_resident_shards,
            use_mmap=use_mmap,
        )

    @classmethod
    def generate(
        cls,
        config: EnterpriseConfig,
        directory: Optional[PathLike] = None,
        hosts_per_shard: int = DEFAULT_HOSTS_PER_SHARD,
        max_resident_shards: int = DEFAULT_MAX_RESIDENT_SHARDS,
        use_mmap: bool = True,
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
            use_mmap=use_mmap,
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

    def _shard(
        self, index: int
    ) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]:
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

    def _load_or_generate_shard(
        self, index: int
    ) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]:
        record = self._manifest["shards"][index]
        if self._directory is not None and record is not None:
            path = self._directory / record["file"]
            if path.is_file():
                with trace_span("engine.shard.load", shard=index):
                    try:
                        # A file this population did not write is hashed
                        # once before its bins are trusted.
                        intact = index in self._verified or (
                            _file_sha256(path) == record["sha256"]
                        )
                        entry = _read_shard(path, use_mmap=self._use_mmap) if intact else None
                    except (ValidationError, OSError, ValueError, KeyError):
                        entry = None
                if entry is not None:
                    self._verified.add(index)
                    return entry
        # No file, or a corrupt one: regenerate (and rewrite) the shard.
        return self._generate_shard(index)

    def _generate_shard(
        self, index: int
    ) -> Tuple[Dict[int, HostProfile], Dict[int, FeatureMatrix]]:
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
            # Re-open through the mmap path so the resident copy is the
            # zero-copy view, not the generation-sized arrays.
            try:
                return _read_shard(self._directory / record["file"], use_mmap=self._use_mmap)
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

    def matrices(self) -> Dict[int, FeatureMatrix]:
        """All feature matrices keyed by host id.

        This materialises every shard's matrix mapping at once (the arrays
        themselves stay mmap-backed) — fine at experiment scale, but
        million-host callers should iterate :meth:`iter_shards` or sample
        instead.
        """
        self._build_missing_shards(range(self.num_shards))
        combined: Dict[int, FeatureMatrix] = {}
        for index in range(self.num_shards):
            _, matrices = self._shard(index)
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

    def iter_shards(self) -> Iterator[Tuple[range, Dict[int, FeatureMatrix]]]:
        """Iterate ``(host_range, matrices)`` shard by shard."""
        for index in range(self.num_shards):
            _, matrices = self._shard(index)
            yield self._shard_host_range(index), matrices

    # ------------------------------------------------------------ aggregates
    def feature_values(self, feature: Feature) -> Dict[int, np.ndarray]:
        """Per-host per-bin values of ``feature``."""
        return {
            host_id: matrix.series(feature).values
            for _, matrices in self.iter_shards()
            for host_id, matrix in matrices.items()
        }

    def distributions(self, feature: Feature) -> Dict[int, EmpiricalDistribution]:
        """Per-host empirical distribution of ``feature``."""
        return {
            host_id: matrix.series(feature).distribution()
            for _, matrices in self.iter_shards()
            for host_id, matrix in matrices.items()
        }

    def pooled_distribution(self, feature: Feature) -> EmpiricalDistribution:
        """The global (pooled across hosts) distribution of ``feature``."""
        return EmpiricalDistribution.pooled(list(self.distributions(feature).values()))

    def per_host_percentiles(self, feature: Feature, q: float) -> Dict[int, float]:
        """Per-host ``q``-th percentile of ``feature``."""
        return {
            host_id: matrix.series(feature).percentile(q)
            for _, matrices in self.iter_shards()
            for host_id, matrix in matrices.items()
        }

    def max_observed(self, feature: Feature) -> float:
        """Maximum per-bin value of ``feature`` across all hosts."""
        return max(
            matrix.series(feature).max()
            for _, matrices in self.iter_shards()
            for matrix in matrices.values()
        )

    def materialize(self) -> EnterprisePopulation:
        """The equivalent fully in-memory :class:`EnterprisePopulation`."""
        self._build_missing_shards(range(self.num_shards))
        profiles: Dict[int, HostProfile] = {}
        matrices: Dict[int, FeatureMatrix] = {}
        for index in range(self.num_shards):
            shard_profiles, shard_matrices = self._shard(index)
            profiles.update(shard_profiles)
            matrices.update(shard_matrices)
        return EnterprisePopulation(config=self._config, profiles=profiles, matrices=matrices)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedPopulation(hosts={self._num_hosts}, shards={self.num_shards}, "
            f"resident={len(self._resident)})"
        )


def _config_from_payload(payload: Mapping) -> EnterpriseConfig:
    payload = dict(payload)
    payload["maintenance_weeks"] = tuple(payload["maintenance_weeks"])
    return EnterpriseConfig(**payload)
