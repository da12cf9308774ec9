"""Trace summarisation: the ``repro trace report`` per-span summary tree.

Spans are aggregated by *path* — the chain of span names from a root down —
so the thousand ``core.measure`` spans of a sweep collapse into one row per
position in the tree, each carrying count, cumulative and self totals, and
p50/p95 per-call durations.  ``self`` time is a span's duration minus its
direct children's, the quantity that localises a bottleneck to a layer
instead of smearing it over every enclosing span.

Every latency percentile the run reports (span summaries, loadgen phases,
the ``--monitor`` line) is read through :func:`duration_percentile`, and
every summary table (``repro trace report``, ``repro metrics show``) is
built by :func:`summary_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.telemetry.recorder import SpanRecord


def duration_percentile(durations: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a non-empty sequence of durations (seconds)."""
    return float(np.percentile(np.asarray(durations, dtype=float), q))


@dataclass
class SpanSummary:
    """Aggregated statistics for every span sharing one tree path."""

    name: str
    path: Tuple[str, ...]
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    durations: List[float] = field(default_factory=list)
    children: "List[SpanSummary]" = field(default_factory=list)

    @property
    def p50(self) -> float:
        """Median per-call duration (seconds)."""
        return duration_percentile(self.durations, 50.0)

    @property
    def p95(self) -> float:
        """95th-percentile per-call duration (seconds)."""
        return duration_percentile(self.durations, 95.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe nested summary (used by tests and tooling)."""
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "self_seconds": self.self_seconds,
            "p50": self.p50,
            "p95": self.p95,
            "children": [child.to_dict() for child in self.children],
        }


def summarize_spans(source: Union[Mapping[str, Any], Any]) -> List[SpanSummary]:
    """Aggregate a snapshot's spans into a summary tree, roots first.

    Children are ordered by cumulative time, largest first.
    """
    snapshot = source.snapshot() if hasattr(source, "snapshot") else source
    spans = [SpanRecord.from_dict(payload) for payload in snapshot.get("spans", ())]
    by_id = {span.span_id: span for span in spans}
    child_seconds: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_seconds[span.parent_id] = child_seconds.get(span.parent_id, 0.0) + span.duration

    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: SpanRecord) -> Tuple[str, ...]:
        known = paths.get(span.span_id)
        if known is not None:
            return known
        if span.parent_id is None or span.parent_id not in by_id:
            path: Tuple[str, ...] = (span.name,)
        else:
            path = path_of(by_id[span.parent_id]) + (span.name,)
        paths[span.span_id] = path
        return path

    nodes: Dict[Tuple[str, ...], SpanSummary] = {}
    roots: List[SpanSummary] = []
    for span in sorted(spans, key=lambda item: item.span_id):
        path = path_of(span)
        node = nodes.get(path)
        if node is None:
            node = SpanSummary(name=span.name, path=path)
            nodes[path] = node
            if len(path) == 1:
                roots.append(node)
            else:
                nodes[path[:-1]].children.append(node)
        node.count += 1
        node.total_seconds += span.duration
        node.self_seconds += span.duration - child_seconds.get(span.span_id, 0.0)
        node.durations.append(span.duration)

    def sort_children(node: SpanSummary) -> None:
        node.children.sort(key=lambda child: -child.total_seconds)
        for child in node.children:
            sort_children(child)

    roots.sort(key=lambda node: -node.total_seconds)
    for root in roots:
        sort_children(root)
    return roots


def wall_clock_coverage(source: Union[Mapping[str, Any], Any]) -> Optional[float]:
    """Fraction of the main process' wall clock covered by its root spans.

    The acceptance metric for the instrumentation itself: root spans summing
    to >= 0.95 of the trace extent mean no large untraced gap.  ``None``
    when the snapshot has no spans or zero extent.
    """
    snapshot = source.snapshot() if hasattr(source, "snapshot") else source
    spans = [
        SpanRecord.from_dict(payload)
        for payload in snapshot.get("spans", ())
        if payload.get("process", "main") == snapshot.get("process", "main")
    ]
    if not spans:
        return None
    extent = max(span.end for span in spans) - min(span.start for span in spans)
    if extent <= 0.0:
        return None
    by_id = {span.span_id: span for span in spans}
    rooted = sum(
        span.duration
        for span in spans
        if span.parent_id is None or span.parent_id not in by_id
    )
    return min(1.0, rooted / extent)


def summary_payload(source: Union[Mapping[str, Any], Any]) -> Dict[str, Any]:
    """The machine-readable span summary: one JSON shape shared everywhere.

    ``repro trace report --format json``, the run-metrics registry
    (:mod:`repro.metrics.record`) and ``repro metrics diff`` all consume and
    produce exactly this payload, so summaries written by one tool can be
    aligned against summaries written by another.
    """
    snapshot = source.snapshot() if hasattr(source, "snapshot") else source
    return {
        "summary": [root.to_dict() for root in summarize_spans(snapshot)],
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "wall_clock_coverage": wall_clock_coverage(snapshot),
    }


def summary_rows(
    nodes: Sequence[Mapping[str, Any]],
    max_depth: Optional[int] = None,
    grand_total: Optional[float] = None,
) -> List[List[str]]:
    """Table rows of a summary tree (the :func:`summary_payload` shape), depth first.

    Each row is the indented span name, count, total and self seconds and
    p50/p95 milliseconds; with ``grand_total`` it ends with the node's share
    of it.  Nodes at ``max_depth`` and below are left out.
    """
    rows: List[List[str]] = []

    def add_rows(node: Mapping[str, Any], depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        row = [
            "  " * depth + str(node["name"]),
            str(node["count"]),
            f"{node['total_seconds']:.3f}",
            f"{node['self_seconds']:.3f}",
            f"{node['p50'] * 1e3:.2f}",
            f"{node['p95'] * 1e3:.2f}",
        ]
        if grand_total is not None:
            row.append(f"{100.0 * node['total_seconds'] / grand_total:.1f}%")
        rows.append(row)
        for child in node.get("children", []):
            add_rows(child, depth + 1)

    for node in nodes:
        add_rows(node, 0)
    return rows


def render_trace_report(
    source: Union[Mapping[str, Any], Any], max_depth: Optional[int] = None
) -> str:
    """The ``repro trace report`` table: the summary tree plus counters."""
    from repro.experiments.report import render_table

    payload = summary_payload(source)
    summary = payload["summary"]
    grand_total = sum(node["total_seconds"] for node in summary) or 1.0
    table = render_table(
        ["span", "count", "total_s", "self_s", "p50_ms", "p95_ms", "cumul%"],
        summary_rows(summary, max_depth=max_depth, grand_total=grand_total),
        title="Trace summary — per-span count / cumulative vs self time",
    )
    lines = [table]
    coverage = payload["wall_clock_coverage"]
    if coverage is not None:
        lines.append(f"root spans cover {coverage:.1%} of the traced wall clock")
    counters = payload["counters"]
    if counters:
        counter_rows = [[name, str(counters[name])] for name in sorted(counters)]
        lines.append(render_table(["counter", "value"], counter_rows, title="Counters"))
    return "\n".join(lines)
