"""Append-only JSONL result store for sweep campaigns.

Every evaluated scenario becomes one JSON line: the schema version, the sweep
and scenario names, the full scenario spec (so a record is self-describing
and re-runnable), the scalar metrics from
:class:`~repro.core.experiment.ScenarioOutcome`, and timing/provenance.
Each record is appended in one flushed write, and a torn final line left by
an interrupted append is skipped on read (see :mod:`repro.utils.jsonl`), so
interrupted campaigns keep every completed scenario.

The aggregation helpers (:func:`aggregate`, :func:`pivot`,
:func:`comparison_table`) read records back into cross-run comparisons:
group any record field (dotted paths reach into the spec, e.g.
``"spec.policy.kind"``) against any metric.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.experiments.report import render_table
from repro.sweeps.spec import scenario_spec_hash
from repro.utils.jsonl import append_jsonl, iter_jsonl, read_jsonl
from repro.utils.records import plain
from repro.utils.validation import ValidationError, require

#: Version stamped on every record; readers reject records from the future.
#: Version history: 1 = single-feature metrics; 2 = feature-set metrics (the
#: headline metrics describe the fused alarm, plus ``fusion``,
#: ``num_features`` and the ``per_feature`` table); 3 = optimizer provenance
#: (``optimizer``, ``objective_value``, ``optimizer_iterations`` record how
#: the thresholds were selected, and the spec carries
#: ``evaluation.optimizer``); 4 = temporal provenance (``schedule``,
#: ``num_timeline_weeks``, ``retrain_count``/``retrain_weeks``,
#: ``utility_decay_slope``, the per-week ``timeline`` table and
#: ``training_cost_seconds`` record *when* thresholds were selected, and the
#: spec carries ``evaluation.schedule`` plus ``population.drift``); 5 =
#: sampled evaluation (``sample_size``, ``sample_seed``,
#: ``utility_ci_low``/``utility_ci_high``, ``sample_confidence`` and
#: ``bootstrap_iterations`` record *which hosts* were evaluated and the
#: bootstrap interval around the sampled utility estimate, and the spec
#: carries ``evaluation.sample``).  Older records are still readable —
#: missing optimizer fields read as heuristic-only selection (``"none"``),
#: missing temporal fields as the classic one-shot evaluation, missing
#: sampling fields as a full-population evaluation.
RESULT_SCHEMA_VERSION = 5

PathLike = Union[str, Path]

#: Aggregation functions usable by :func:`aggregate` and :func:`pivot`.
AGGREGATIONS: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda values: float(np.mean(values)),
    "median": lambda values: float(np.median(values)),
    "min": lambda values: float(np.min(values)),
    "max": lambda values: float(np.max(values)),
    "sum": lambda values: float(np.sum(values)),
    "count": lambda values: float(len(values)),
}

#: The headline metrics :func:`comparison_table` shows, in column order.
HEADLINE_METRICS = (
    "mean_utility",
    "mean_f_measure",
    "total_false_alarms",
    "fraction_raising_alarm",
    "distinct_thresholds",
)


@dataclass(frozen=True)
class ScenarioRecord:
    """One stored scenario result."""

    sweep: str
    scenario: str
    spec: Dict[str, Any]
    metrics: Dict[str, Any]
    timing: Dict[str, Any] = field(default_factory=dict)
    run_id: str = ""
    schema: int = RESULT_SCHEMA_VERSION

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioRecord":
        require(isinstance(data, Mapping), "record must be a mapping")
        schema = int(data.get("schema", 0))
        if schema > RESULT_SCHEMA_VERSION:
            raise ValidationError(
                f"record schema {schema} is newer than supported {RESULT_SCHEMA_VERSION}"
            )
        return cls(
            sweep=str(data.get("sweep", "")),
            scenario=str(data.get("scenario", "")),
            spec=dict(data.get("spec", {})),
            metrics=dict(data.get("metrics", {})),
            timing=dict(data.get("timing", {})),
            run_id=str(data.get("run_id", "")),
            schema=schema,
        )

    def value(self, path: str) -> Any:
        """Field lookup by dotted path.

        Bare names try the metrics first, then the top-level record fields
        (``"mean_utility"`` and ``"scenario"`` both work); dotted paths
        descend explicitly (``"spec.policy.kind"``,
        ``"timing.duration_seconds"``).  Dotted paths whose first segment is
        a metric also resolve relative to the metrics table, so per-feature
        metrics read naturally:
        ``"per_feature.num_tcp_connections.mean_detection_rate"``.
        """
        data = self.to_dict()
        parts = path.split(".")
        if len(parts) == 1:
            if parts[0] in self.metrics:
                return self.metrics[parts[0]]
            if parts[0] in data:
                return data[parts[0]]
            raise ValidationError(f"record has no field {path!r}")
        node: Any = data if parts[0] in data else self.metrics
        for part in parts:
            if not isinstance(node, Mapping) or part not in node:
                raise ValidationError(f"record has no field {path!r}")
            node = node[part]
        return node


class ResultStore:
    """An append-only JSONL file of :class:`ScenarioRecord` lines.

    :meth:`spec_hashes` keeps what it has read: the spec hashes of the
    file's complete lines, the file's ``(st_dev, st_ino)``, the byte offset
    just past its last complete line and that line's bytes, so each call
    reads only what was appended since the last.  A file replaced by rename,
    cut shorter than that offset, or no longer holding that line just before
    it is read from the start.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path).expanduser()
        self._forget(None)

    @property
    def path(self) -> Path:
        """Location of the JSONL file."""
        return self._path

    def append(self, record: ScenarioRecord) -> None:
        """Append one record (creating the file and parent directories)."""
        append_jsonl(self._path, record.to_dict())

    def records(self) -> List[ScenarioRecord]:
        """Every stored record, in append order (a torn final line is skipped)."""
        return [ScenarioRecord.from_dict(payload) for payload in read_jsonl(self._path)]

    def spec_hashes(self) -> FrozenSet[str]:
        """The :func:`~repro.sweeps.spec.scenario_spec_hash` of every stored record's spec.

        The sweep runner's result-cache key.  Records are read by
        :func:`~repro.utils.jsonl.iter_jsonl` under :meth:`records`' rules: a
        torn final line is skipped with a warning (and read again on the next
        call), an unparsable line raises ``ValidationError`` naming
        ``path:line``, and so does a record from a newer schema.  Only the
        lines past the last complete one this store has read are parsed.
        """
        if not self._path.is_file():
            self._forget(None)
            return frozenset()
        unterminated: Set[str] = set()
        with self._path.open("rb") as handle:
            status = os.fstat(handle.fileno())
            identity = (status.st_dev, status.st_ino)
            handle.seek(self._offset - len(self._last_line))
            if identity != self._identity or handle.read(len(self._last_line)) != self._last_line:
                self._forget(identity)
            for payload, text, end, line in iter_jsonl(
                handle, self._path, self._offset, self._lines
            ):
                spec_hash = scenario_spec_hash(ScenarioRecord.from_dict(payload).spec)
                if end is None:
                    unterminated.add(spec_hash)
                else:
                    self._hashes.add(spec_hash)
                    self._offset, self._lines, self._last_line = end, line, text
        return frozenset(self._hashes | unterminated)

    def _forget(self, identity: Optional[Tuple[int, int]]) -> None:
        """Start over on the file ``identity`` names: nothing of it read yet."""
        self._identity = identity
        self._offset = self._lines = 0
        self._last_line = b""
        self._hashes = set()

    def __len__(self) -> int:
        return len(self.records())

    def __iter__(self):
        return iter(self.records())


def aggregate(
    records: Sequence[ScenarioRecord],
    group_by: Sequence[str],
    metric: str = "mean_utility",
    agg: str = "mean",
) -> List[Tuple[Tuple[Any, ...], float]]:
    """Aggregate ``metric`` over records grouped by the given field paths.

    Returns ``[(group_key_values, aggregated_value), ...]`` in first-seen
    group order.
    """
    require(agg in AGGREGATIONS, f"agg must be one of {sorted(AGGREGATIONS)}, got {agg!r}")
    require(len(group_by) > 0, "group_by must name at least one field")
    groups: Dict[Tuple[Any, ...], List[float]] = {}
    for record in records:
        key = tuple(record.value(path) for path in group_by)
        groups.setdefault(key, []).append(float(record.value(metric)))
    reducer = AGGREGATIONS[agg]
    return [(key, reducer(values)) for key, values in groups.items()]


def pivot(
    records: Sequence[ScenarioRecord],
    rows: str,
    columns: str,
    metric: str = "mean_utility",
    agg: str = "mean",
) -> Tuple[List[str], List[List[Any]]]:
    """Cross-tabulate ``metric``: one row per ``rows`` value, one column per
    ``columns`` value.  Returns ``(headers, table_rows)`` ready for
    :func:`~repro.experiments.report.render_table`; cells with no records
    render as ``"-"``.
    """
    cells = aggregate(records, group_by=(rows, columns), metric=metric, agg=agg)
    row_keys: List[Any] = []
    col_keys: List[Any] = []
    values: Dict[Tuple[Any, Any], float] = {}
    for (row_key, col_key), value in cells:
        if row_key not in row_keys:
            row_keys.append(row_key)
        if col_key not in col_keys:
            col_keys.append(col_key)
        values[(row_key, col_key)] = value
    headers = [rows] + [str(key) for key in col_keys]
    table = [
        [row_key] + [values.get((row_key, col_key), "-") for col_key in col_keys]
        for row_key in row_keys
    ]
    return headers, table


def comparison_table(
    records: Sequence[ScenarioRecord],
    metrics: Sequence[str] = HEADLINE_METRICS,
    title: Optional[str] = None,
) -> str:
    """Render the cross-scenario comparison: one row per stored scenario."""
    require(len(records) > 0, "no records to compare")
    headers = ["scenario"] + list(metrics)
    rows = [[record.scenario] + [record.value(metric) for metric in metrics] for record in records]
    sweeps = sorted({record.sweep for record in records if record.sweep})
    if title is None:
        title = f"Sweep comparison — {', '.join(sweeps)}" if sweeps else "Sweep comparison"
    return render_table(headers, rows, title=title)
