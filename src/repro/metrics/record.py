"""The persistent run-metrics registry: append-only ``metrics.jsonl`` history.

Every ``repro`` invocation run with ``--metrics PATH`` (or with
``REPRO_METRICS_HISTORY`` set) appends one schema-versioned
:class:`RunRecord` — the run's span summary tree (the
:func:`repro.telemetry.summary_payload` shape), counters, gauges, derived
engine-cache and shard statistics, peak RSS, and wall clock — to an
append-only JSONL file.  ``repro metrics list/show/export/diff`` query it.

Run handlers annotate the record through a small collection seam: the CLI
dispatcher installs :func:`collect_annotations` around the handler, and the
handler calls :func:`annotate_run` with whatever identifies the run (run id,
sweep name, spec hashes, store path).  With no collector installed
``annotate_run`` is a no-op, so handlers never branch on whether metrics are
enabled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro.telemetry.report import summary_payload
from repro.utils.jsonl import append_jsonl, read_jsonl
from repro.utils.records import plain
from repro.utils.resources import peak_rss_bytes
from repro.utils.validation import ValidationError, require, require_type

#: Schema version stamped on every history record.  Bump on shape changes;
#: readers reject records written by a *newer* schema (mirrors ResultStore).
METRICS_SCHEMA_VERSION = 1

#: Environment variable enabling metrics recording without the CLI flag.
METRICS_HISTORY_ENV = "REPRO_METRICS_HISTORY"

#: Default history file name used in docs and CI.
DEFAULT_HISTORY_NAME = "metrics.jsonl"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RunRecord:
    """One run's metrics summary, as stored in the history file."""

    run_id: str
    command: str
    timestamp: str
    wall_clock_seconds: float
    summary: List[Dict[str, Any]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    engine_cache: Dict[str, float] = field(default_factory=dict)
    shards: Dict[str, float] = field(default_factory=dict)
    peak_rss_bytes: int = 0
    annotations: Dict[str, Any] = field(default_factory=dict)
    schema: int = METRICS_SCHEMA_VERSION

    to_dict = plain

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict`; validates schema and required fields."""
        require_type(payload, Mapping, "metrics record")
        schema = payload.get("schema")
        require(isinstance(schema, int), "metrics record is missing its schema version")
        require(
            schema <= METRICS_SCHEMA_VERSION,
            f"metrics record schema v{schema} is newer than this reader "
            f"(v{METRICS_SCHEMA_VERSION}); upgrade repro to query this history",
        )
        for key in ("run_id", "command", "timestamp", "wall_clock_seconds", "summary"):
            require(key in payload, f"metrics record is missing required field {key!r}")
        return cls(
            run_id=str(payload["run_id"]),
            command=str(payload["command"]),
            timestamp=str(payload["timestamp"]),
            wall_clock_seconds=float(payload["wall_clock_seconds"]),
            summary=list(payload["summary"]),
            counters={str(k): int(v) for k, v in payload.get("counters", {}).items()},
            gauges={str(k): float(v) for k, v in payload.get("gauges", {}).items()},
            engine_cache=dict(payload.get("engine_cache", {})),
            shards=dict(payload.get("shards", {})),
            peak_rss_bytes=int(payload.get("peak_rss_bytes", 0)),
            annotations=dict(payload.get("annotations", {})),
            schema=int(schema),
        )


def engine_cache_stats(counters: Mapping[str, int]) -> Dict[str, Any]:
    """Population-engine cache effectiveness from the ``engine.cache.*`` counters.

    ``hits``/``misses`` count cache reads that found / did not find a stored
    population (an engine without a cache reads nothing and counts neither);
    ``hit_ratio`` is 0.0 when there were no reads.  The one definition the
    history record, the loadgen report and the ``--monitor`` line share.
    """
    hits = int(counters.get("engine.cache.hits", 0))
    misses = int(counters.get("engine.cache.misses", 0))
    requests = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_ratio": (hits / requests) if requests else 0.0,
    }


def build_run_record(
    snapshot: Mapping[str, Any],
    command: str,
    wall_clock_seconds: float,
    annotations: Optional[Mapping[str, Any]] = None,
    run_id: str = "",
    timestamp: str = "",
    rss_probe: Callable[[], int] = peak_rss_bytes,
) -> RunRecord:
    """Build one history record from a recorder snapshot.

    ``run_id`` defaults to the handler-annotated id (sweep runs reuse the
    result store's run id, so metrics and results join on it) and falls back
    to a command-derived label.  ``timestamp`` and ``rss_probe`` are
    injectable for deterministic tests.
    """
    notes = dict(annotations or {})
    payload = summary_payload(snapshot)
    counters = payload["counters"]
    gauges = dict(payload["gauges"])
    rss = int(rss_probe())
    gauges.setdefault("process.rss_bytes", float(rss))
    if not run_id:
        run_id = str(notes.pop("run_id", ""))
    if not run_id:
        # repro-lint: disable=REP002 run ids are provenance labels that deliberately record wall-clock; they are never parsed back into results
        run_id = f"{command.replace(' ', '-')}-{int(time.time())}"
    if not timestamp:
        # repro-lint: disable=REP002 the record timestamp is provenance metadata, never an input to computation
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return RunRecord(
        run_id=run_id,
        command=command,
        timestamp=timestamp,
        wall_clock_seconds=float(wall_clock_seconds),
        summary=payload["summary"],
        counters=counters,
        gauges=gauges,
        engine_cache=engine_cache_stats(counters),
        shards={
            "loaded": int(counters.get("engine.shards_loaded", 0)),
            "resident": gauges.get("engine.shards_resident", 0.0),
            "bytes_resident": gauges.get("engine.shard_bytes_resident", 0.0),
        },
        peak_rss_bytes=rss,
        annotations=notes,
    )


class MetricsHistory:
    """Append-only JSONL file of :class:`RunRecord` payloads."""

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path).expanduser()

    @property
    def path(self) -> Path:
        """The history file location."""
        return self._path

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record (creating parent directories as needed)."""
        append_jsonl(self._path, record.to_dict())
        return record

    def records(self) -> List[RunRecord]:
        """Every record in append order; [] when the file does not exist.

        A torn final line (an interrupted append) is skipped with a warning.
        """
        return [RunRecord.from_dict(payload) for payload in read_jsonl(self._path)]

    def select(self, token: str) -> RunRecord:
        """The record named by ``token``: exact run id, else integer index.

        Indices address append order (``0`` oldest, ``-1`` latest), so
        ``repro metrics diff -2 -1`` compares the last two runs without
        anyone copying run ids around.
        """
        records = self.records()
        if not records:
            raise ValidationError(
                f"metrics history {self._path} is empty; record a run with "
                f"`repro sweep run ... --metrics {self._path}`"
            )
        for record in records:
            if record.run_id == token:
                return record
        try:
            index = int(token)
        except ValueError:
            known = ", ".join(record.run_id for record in records[-5:])
            raise ValidationError(
                f"no run {token!r} in {self._path} (most recent: {known})"
            ) from None
        try:
            return records[index]
        except IndexError:
            raise ValidationError(
                f"run index {index} out of range: {self._path} holds "
                f"{len(records)} record(s)"
            ) from None


# --------------------------------------------------------------------------
# The annotation seam run handlers write through.
# --------------------------------------------------------------------------
_ANNOTATIONS: List[Dict[str, Any]] = []


@contextmanager
def collect_annotations() -> Iterator[Dict[str, Any]]:
    """Collect :func:`annotate_run` fields for the duration of the block."""
    notes: Dict[str, Any] = {}
    _ANNOTATIONS.append(notes)
    try:
        yield notes
    finally:
        _ANNOTATIONS.pop()


def annotate_run(**fields: Any) -> None:
    """Attach identifying fields to the run's metrics record, if one is open.

    A no-op when no collector is installed (metrics disabled), so run
    handlers call it unconditionally.
    """
    if _ANNOTATIONS:
        _ANNOTATIONS[-1].update(fields)


__all__ = [
    "DEFAULT_HISTORY_NAME",
    "METRICS_HISTORY_ENV",
    "METRICS_SCHEMA_VERSION",
    "MetricsHistory",
    "RunRecord",
    "annotate_run",
    "build_run_record",
    "collect_annotations",
    "engine_cache_stats",
]
