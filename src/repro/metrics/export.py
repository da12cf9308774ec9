"""OpenMetrics / JSON export of run-metrics records.

The text format follows the OpenMetrics flavour Prometheus scrapes: one
``# TYPE`` line per metric family, counter samples suffixed ``_total``,
escaped label values, and a terminating ``# EOF``.  A strict
:func:`parse_openmetrics` lives alongside the writer so CI validates every
export with the same parser external tooling would use.

Dotted repro names map to metric families by prefixing ``repro_`` and
replacing the dots (``engine.cache.hits`` -> ``repro_engine_cache_hits``);
span summaries flatten to ``repro_span_*`` families labelled by tree path.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Union

from repro.metrics.diff import flatten_summary
from repro.metrics.record import RunRecord
from repro.utils.validation import ValidationError

EXPORT_FORMATS = ("openmetrics", "json")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>[^\s]+))?$"
)
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def metric_name(name: str) -> str:
    """A dotted repro metric name as an OpenMetrics family name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def openmetrics_text(record: Union[RunRecord, Mapping[str, Any]]) -> str:
    """The OpenMetrics exposition of one history record."""
    if isinstance(record, RunRecord):
        record = record.to_dict()
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"# HELP {name} {help_text}")

    info = metric_name("run")
    family(info, "info", "Identity of the repro run this export describes.")
    labels = (
        f'run_id="{_escape_label(record["run_id"])}"'
        f',command="{_escape_label(record["command"])}"'
        f',timestamp="{_escape_label(record["timestamp"])}"'
    )
    lines.append(f"{info}_info{{{labels}}} 1")

    family(metric_name("run.wall_clock_seconds"), "gauge", "Run wall clock in seconds.")
    lines.append(f"{metric_name('run.wall_clock_seconds')} {record['wall_clock_seconds']}")
    family(metric_name("run.peak_rss_bytes"), "gauge", "Peak resident set size in bytes.")
    lines.append(f"{metric_name('run.peak_rss_bytes')} {record.get('peak_rss_bytes', 0)}")

    for name in sorted(record.get("counters", {})):
        value = record["counters"][name]
        family(metric_name(name), "counter", f"repro counter {name}.")
        lines.append(f"{metric_name(name)}_total {value}")
    for name in sorted(record.get("gauges", {})):
        value = record["gauges"][name]
        family(metric_name(name), "gauge", f"repro gauge {name}.")
        lines.append(f"{metric_name(name)} {value}")

    flat = flatten_summary(record.get("summary", []))
    if flat:
        calls = metric_name("span.calls")
        total = metric_name("span.seconds")
        own = metric_name("span.self_seconds")
        family(calls, "counter", "Completed spans per summary-tree path.")
        for path, node in flat.items():
            lines.append(f'{calls}_total{{path="{_escape_label(path)}"}} {node["count"]}')
        family(total, "gauge", "Cumulative span seconds per summary-tree path.")
        for path, node in flat.items():
            lines.append(
                f'{total}{{path="{_escape_label(path)}"}} {node["total_seconds"]}'
            )
        family(own, "gauge", "Self (non-child) span seconds per summary-tree path.")
        for path, node in flat.items():
            lines.append(f'{own}{{path="{_escape_label(path)}"}} {node["self_seconds"]}')

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse an OpenMetrics exposition; raises :class:`ValidationError`.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``.
    Strict on the points scrapers are strict about: a single terminating
    ``# EOF``, declared types, well-formed label syntax, float values, and
    counter samples carrying the ``_total`` suffix.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValidationError("OpenMetrics exposition must end with a '# EOF' line")
    families: Dict[str, Dict[str, Any]] = {}
    for number, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ValidationError(f"line {number}: blank lines are not allowed")
        if line == "# EOF":
            raise ValidationError(f"line {number}: '# EOF' before the end of the exposition")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValidationError(f"line {number}: malformed TYPE line: {line!r}")
            _, _, name, kind = parts
            if not _NAME_RE.match(name):
                raise ValidationError(f"line {number}: invalid metric name {name!r}")
            if kind not in ("counter", "gauge", "info", "histogram", "summary", "unknown"):
                raise ValidationError(f"line {number}: unknown metric type {kind!r}")
            if name in families:
                raise ValidationError(f"line {number}: duplicate TYPE for family {name!r}")
            families[name] = {"type": kind, "samples": []}
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT metadata
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValidationError(f"line {number}: malformed sample line: {line!r}")
        sample_name = match.group("name")
        family = _owning_family(sample_name, families)
        if family is None:
            raise ValidationError(
                f"line {number}: sample {sample_name!r} has no preceding TYPE declaration"
            )
        kind = families[family]["type"]
        if kind == "counter" and not sample_name.endswith(("_total", "_created")):
            raise ValidationError(
                f"line {number}: counter sample {sample_name!r} must end in _total"
            )
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in _split_labels(raw_labels, number):
                label = _LABEL_RE.match(pair)
                if label is None:
                    raise ValidationError(f"line {number}: malformed label {pair!r}")
                labels[label.group("key")] = label.group("value")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValidationError(
                f"line {number}: sample value {match.group('value')!r} is not a float"
            ) from None
        families[family]["samples"].append((sample_name, labels, value))
    empty = [name for name, data in families.items() if not data["samples"]]
    if empty:
        raise ValidationError(f"families declared but never sampled: {', '.join(empty)}")
    return families


def _owning_family(sample_name: str, families: Mapping[str, Any]) -> Union[str, None]:
    """The declared family a sample belongs to (suffix-aware), or None."""
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_created", "_info", "_count", "_sum", "_bucket"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
            return sample_name[: -len(suffix)]
    return None


def _split_labels(raw: str, number: int) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in raw:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes:
        raise ValidationError(f"line {number}: unterminated label value")
    if current:
        pairs.append("".join(current))
    return pairs


def export_record(record: RunRecord, export_format: str) -> str:
    """The record in the requested export format (``openmetrics`` or ``json``)."""
    if export_format == "openmetrics":
        return openmetrics_text(record)
    if export_format == "json":
        return json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
    raise ValidationError(
        f"unknown export format {export_format!r} (choose from {', '.join(EXPORT_FORMATS)})"
    )


__all__ = [
    "EXPORT_FORMATS",
    "export_record",
    "metric_name",
    "openmetrics_text",
    "parse_openmetrics",
]
