"""The ``.rpopd`` population format: one directory of hash-checked shards.

Every cached population lives in a ``population-<key>.rpopd/`` directory:

* ``manifest.json`` — format version, the full
  :class:`~repro.workload.enterprise.EnterpriseConfig` payload, the shard
  geometry and, per written shard, its file name and SHA-256 content hash.
* ``shard-NNNNN.rpsh`` — one fixed-size host range each.  A shard file holds
  a magic + version + host-count header and the profiles of its hosts,
  followed by one contiguous ``(num_hosts, num_features, num_bins)``
  little-endian float64 block.  The whole feature payload of a shard maps
  straight into memory, so loading a shard never copies bin values, and the
  round trip is exact: a loaded population is bit-identical to the generated
  one.

Shards are written first and the manifest last, each replaced by rename, so
an interrupted write leaves either the previous manifest or none: a shard
file the manifest does not record, or whose hash it does not match, is never
trusted.  A population of up to :data:`DEFAULT_HOSTS_PER_SHARD` hosts is one
shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.features.definitions import PAPER_FEATURES, Feature
from repro.features.timeseries import FeatureMatrix, PopulationFrame
from repro.utils.records import parse, plain
from repro.utils.timeutils import BinSpec
from repro.utils.validation import ValidationError, require
from repro.workload.enterprise import EnterpriseConfig, EnterprisePopulation
from repro.workload.profiles import FeatureIntensity, HostProfile, UserRole

#: Bump whenever the on-disk layout or the generation process changes in a
#: way that invalidates cached populations.  Version 2 introduced the
#: ``.rpopd`` layout.
POPULATION_FORMAT_VERSION = 2

#: Default host-range size per shard.  4096 hosts x 6 features x one week of
#: 15-minute bins is ~132 MiB of float64 per five-week shard — big enough to
#: amortise per-shard overhead, small enough that a handful stay resident.
DEFAULT_HOSTS_PER_SHARD = 4096

_SHARD_MAGIC = b"RPSH"
_MANIFEST_NAME = "manifest.json"

# magic, format version, host count
_HEADER_STRUCT = struct.Struct("<4sHI")
# host_id, role index, is_laptop, master_intensity
_HOST_STRUCT = struct.Struct("<IBBd")
# scale, body_sigma, burst_probability, burst_alpha
_INTENSITY_STRUCT = struct.Struct("<dddd")
# a feature index byte, then its intensity
_INTENSITY_RECORD_SIZE = 1 + _INTENSITY_STRUCT.size
# num_bins, bin_width, bin origin
_MATRIX_STRUCT = struct.Struct("<Idd")

_ROLE_ORDER = tuple(UserRole)
_FEATURE_ORDER = PAPER_FEATURES

PathLike = Union[str, Path]

#: One shard's contents: profiles and feature matrices keyed by host id (a
#: profile table and a :class:`PopulationFrame` when read from a shard file).
ShardEntry = Tuple[Mapping[int, HostProfile], Mapping[int, FeatureMatrix]]

#: A file as one handle saw it: ``(st_dev, st_ino, st_size, st_mtime_ns)``.
FileIdentity = Tuple[int, int, int, int]


def config_payload(config: EnterpriseConfig) -> dict:
    """JSON-ready mapping of every ``EnterpriseConfig`` field.

    Derived from the dataclass fields (:func:`~repro.utils.records.plain`)
    so newly added config fields are automatically part of both the
    manifest and the cache key — a hand-maintained field list here would
    silently collide cache entries for configs differing only in a
    forgotten field.  The drift model is stored in its nested-dict form,
    which :func:`config_from_payload` reads back.
    """
    return plain(config)


def config_from_payload(payload: Mapping) -> EnterpriseConfig:
    """The ``EnterpriseConfig`` a :func:`config_payload` mapping describes.

    Read by :func:`~repro.utils.records.parse`, drift model included: a
    malformed payload raises :class:`ValidationError`.
    """
    return parse(EnterpriseConfig, payload, "population config")


# ------------------------------------------------------------------- shards
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
            sink.write(_HEADER_STRUCT.pack(_SHARD_MAGIC, POPULATION_FORMAT_VERSION, len(host_ids)))
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
            # Pad the value block to 8-byte alignment so the mapped view is
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
    """SHA-256 hex digest of a file, hashed from buffered reads."""
    return _hash_file(path)[0]


def _hash_file(path: Path) -> Tuple[str, FileIdentity]:
    """SHA-256 hex digest of a file and the identity of the handle it was read from.

    The identity is taken from the open handle before its first read, so a
    write during the hash moves the modification time past it.  Never
    through an mmap: hashing a shard must not leave its pages resident.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        identity = _file_identity(os.fstat(handle.fileno()))
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest(), identity


def _file_identity(status: os.stat_result) -> FileIdentity:
    """``(st_dev, st_ino, st_size, st_mtime_ns)``: what a rewrite or a rename changes."""
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _shard_file_name(index: int) -> str:
    return f"shard-{index:05d}.rpsh"


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


def _read_shard(path: Path) -> ShardEntry:
    """Read a shard written by :func:`_write_shard`: its profile table and its frame.

    Every host record is walked and checked at load (see
    :func:`_read_host_records`), so a bad shard is a miss here and never an
    error at a later lookup; each host's :class:`HostProfile` and
    :class:`FeatureMatrix` are built on first use.  The value block is not
    read at all: the :class:`PopulationFrame` holds one read-only mapping of
    the file, and each host's series wraps a row of it, so bins are paged in
    only when an evaluation actually touches them.  The block and its rows
    are plain ``numpy.ndarray`` views (whose base keeps the mapping alive),
    not ``numpy.memmap`` rows, whose Python-level
    ``__array_wrap__``/``__getitem__`` would tax every numpy operation on them.
    """
    with open(path, "rb") as handle:
        magic, version, num_hosts = _HEADER_STRUCT.unpack(_read_exact(handle, _HEADER_STRUCT.size))
        require(magic == _SHARD_MAGIC, "not a valid shard file (bad magic)")
        require(
            version == POPULATION_FORMAT_VERSION,
            f"unsupported shard format version {version}",
        )
        host_ids, profiles = _read_host_records(handle, num_hosts)
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
    block = np.memmap(path, dtype="<f8", mode="r", offset=values_offset, shape=shape)
    # The block was validated (non-negative, one-dimensional) when the shard
    # was written and is integrity-checked via its manifest hash, so the
    # frame wraps its rows without re-validating: np.all(...) on a mapped
    # block would page the whole shard in and defeat the zero-copy load.
    return profiles, PopulationFrame(host_ids, features, bin_spec, block.view(np.ndarray))


def _read_host_records(handle, num_hosts: int) -> Tuple[List[int], "_ShardProfiles"]:
    """The host ids (in shard order) and the profile table of a shard's host records.

    Reads the ``num_hosts`` records at ``handle`` and checks every field a
    :class:`HostProfile` is built from: a truncated record, an unknown role
    or feature index, or a value outside the ranges :class:`HostProfile` and
    :class:`FeatureIntensity` accept raises :class:`ValidationError`.
    """
    records = bytearray()
    starts: List[int] = []
    for _ in range(num_hosts):
        starts.append(len(records))
        head = _read_exact(handle, _HOST_STRUCT.size + 1)
        records += head
        records += _read_exact(handle, head[-1] * _INTENSITY_RECORD_SIZE)
    raw = np.frombuffer(records, dtype=np.uint8)
    first = np.array(starts, dtype=np.int64)
    counts = raw[first + _HOST_STRUCT.size].astype(np.int64)
    # Each intensity record's offset: its host's first record plus its rank.
    ranks = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    at = np.repeat(first, counts) + (_HOST_STRUCT.size + 1) + ranks * _INTENSITY_RECORD_SIZE
    # A host record holds its id at byte 0, its role index at 4 and its
    # master intensity at 6 (_HOST_STRUCT).
    _require_indices(raw[first + 4], len(_ROLE_ORDER), "role")
    _require_indices(raw[at], len(_FEATURE_ORDER), "feature")
    master = _gather(raw, first + 6, "<f8")[:, 0]
    scale, body_sigma, burst_probability, burst_alpha = _gather(raw, at + 1, "<f8", 4).T
    in_range = (
        counts.all()
        and (master > 0).all()
        and (scale > 0).all()
        and (body_sigma > 0).all()
        and ((burst_probability >= 0.0) & (burst_probability <= 0.2)).all()
        and (burst_alpha > 0).all()
    )
    require(bool(in_range), "population shard holds a host profile no HostProfile accepts")
    host_ids = _gather(raw, first, "<u4")[:, 0].tolist()
    return host_ids, _ShardProfiles(bytes(records), dict(zip(host_ids, starts)))


class _ShardProfiles(Mapping[int, HostProfile]):
    """A shard's host profiles, each built from its checked record on first lookup.

    ``records`` holds the shard's host records back to back and ``starts``
    maps each host id to its record's offset, in shard order.  A built
    profile is kept, so every lookup of a host returns the same object.
    """

    def __init__(self, records: bytes, starts: Dict[int, int]) -> None:
        self._records = records
        self._starts = starts
        self._built: Dict[int, HostProfile] = {}

    def __getitem__(self, host_id: int) -> HostProfile:
        profile = self._built.get(host_id)
        if profile is None:
            profile = self._built[host_id] = self._build(self._starts[host_id])
        return profile

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._starts

    def __iter__(self) -> Iterator[int]:
        return iter(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def _build(self, start: int) -> HostProfile:
        records = self._records
        host_id, role_index, is_laptop, master_intensity = _HOST_STRUCT.unpack_from(records, start)
        intensities: Dict[Feature, FeatureIntensity] = {}
        position = start + _HOST_STRUCT.size + 1
        for _ in range(records[start + _HOST_STRUCT.size]):
            scale, body_sigma, burst_probability, burst_alpha = _INTENSITY_STRUCT.unpack_from(
                records, position + 1
            )
            intensities[_FEATURE_ORDER[records[position]]] = FeatureIntensity(
                scale=scale,
                body_sigma=body_sigma,
                burst_probability=burst_probability,
                burst_alpha=burst_alpha,
            )
            position += _INTENSITY_RECORD_SIZE
        return HostProfile(
            host_id=host_id,
            role=_ROLE_ORDER[role_index],
            master_intensity=master_intensity,
            intensities=intensities,
            is_laptop=bool(is_laptop),
        )


def _gather(raw: np.ndarray, offsets: np.ndarray, dtype: str, count: int = 1) -> np.ndarray:
    """``count`` values of ``dtype`` at each byte offset into ``raw``, one row per offset."""
    width = np.dtype(dtype).itemsize * count
    return raw[offsets[:, None] + np.arange(width)].view(dtype)


def _require_indices(indices: np.ndarray, limit: int, kind: str) -> None:
    unknown = indices[indices >= limit]
    if unknown.size:
        raise ValidationError(f"unknown {kind} index {unknown[0]} in population shard")


def _read_exact(handle, size: int) -> bytes:
    chunk = handle.read(size)
    require(len(chunk) == size, "truncated population shard file")
    return chunk


def _feature_at(index: int) -> Feature:
    if not 0 <= index < len(_FEATURE_ORDER):
        raise ValidationError(f"unknown feature index {index} in population shard")
    return _FEATURE_ORDER[index]


# ----------------------------------------------------------------- manifest
def _manifest_path(directory: Path) -> Path:
    return directory / _MANIFEST_NAME


def _write_manifest(directory: Path, manifest: dict) -> None:
    path = _manifest_path(directory)
    temporary = path.with_suffix(f".tmp{os.getpid()}")
    temporary.write_text(json.dumps(manifest, sort_keys=True, indent=1))
    os.replace(temporary, path)


def _num_shards(num_hosts: int, hosts_per_shard: int) -> int:
    return -(-num_hosts // hosts_per_shard)


def _new_manifest(config: EnterpriseConfig, hosts_per_shard: int) -> dict:
    return {
        "format": POPULATION_FORMAT_VERSION,
        "config": config_payload(config),
        "num_hosts": config.num_hosts,
        "hosts_per_shard": hosts_per_shard,
        "shards": [None] * _num_shards(config.num_hosts, hosts_per_shard),
    }


def write_population_sharded(
    directory: PathLike,
    population: EnterprisePopulation,
    hosts_per_shard: int = DEFAULT_HOSTS_PER_SHARD,
) -> Path:
    """Write an in-memory population as a complete ``.rpopd`` directory.

    Every shard file is written (and renamed into place) before the manifest
    that records it, so an interrupted write never leaves a manifest naming
    a shard that is not on disk.
    """
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
    if not isinstance(manifest, dict):
        raise ValidationError("sharded population manifest is not a JSON object")
    if manifest.get("format") != POPULATION_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported sharded population format {manifest.get('format')!r}"
        )
    for key in ("config", "num_hosts", "hosts_per_shard", "shards"):
        if key not in manifest:
            raise ValidationError(f"sharded population manifest missing {key!r}")
    num_hosts, hosts_per_shard, shards = (
        manifest["num_hosts"],
        manifest["hosts_per_shard"],
        manifest["shards"],
    )
    if not (
        isinstance(num_hosts, int)
        and isinstance(hosts_per_shard, int)
        and hosts_per_shard >= 1
        and isinstance(shards, list)
        and len(shards) == _num_shards(num_hosts, hosts_per_shard)
        and all(record is None or _is_shard_record(record) for record in shards)
    ):
        raise ValidationError(
            "sharded population manifest needs one shard record (or null) per "
            "hosts_per_shard hosts of num_hosts"
        )
    return manifest


def _is_shard_record(record: Any) -> bool:
    return (
        isinstance(record, dict)
        and isinstance(record.get("file"), str)
        and isinstance(record.get("sha256"), str)
    )
