"""Regression attribution: ``repro metrics diff RUN_A RUN_B``.

Aligns the span summary trees of two history records by tree path and
attributes the wall-clock delta to specific spans via *self* time — the
quantity that localises a slowdown to the layer that actually got slower
instead of smearing it over every enclosing span.  This extends what
``scripts/bench_compare.py`` can say (whole-benchmark medians) down to
individual spans of real runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.metrics.record import RunRecord


@dataclass(frozen=True)
class SpanDelta:
    """One aligned summary-tree path across two runs."""

    path: str
    count_a: int
    count_b: int
    total_a: float
    total_b: float
    self_a: float
    self_b: float

    @property
    def total_delta(self) -> float:
        """Change in cumulative seconds (B minus A)."""
        return self.total_b - self.total_a

    @property
    def self_delta(self) -> float:
        """Change in self seconds (B minus A) — the attribution quantity."""
        return self.self_b - self.self_a

    @property
    def ratio(self) -> Optional[float]:
        """Total-time ratio B/A; None when A recorded no time."""
        if self.total_a <= 0.0:
            return None
        return self.total_b / self.total_a


def flatten_summary(nodes: List[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """A summary tree as ``{path: node}`` with ``/``-joined paths, depth first."""
    flat: Dict[str, Dict[str, Any]] = {}

    def walk(children: List[Mapping[str, Any]], prefix: Tuple[str, ...]) -> None:
        for node in children:
            path = prefix + (str(node["name"]),)
            flat["/".join(path)] = dict(node)
            walk(node.get("children", []), path)

    walk(nodes, ())
    return flat


def diff_summaries(
    summary_a: List[Mapping[str, Any]], summary_b: List[Mapping[str, Any]]
) -> List[SpanDelta]:
    """Aligned per-path deltas, largest |self delta| first.

    Paths present in only one run still appear (the other side reads as
    zero), so a span that vanished or newly appeared is attributed too.
    """
    flat_a = flatten_summary(summary_a)
    flat_b = flatten_summary(summary_b)
    deltas = [
        SpanDelta(
            path=path,
            count_a=int(flat_a.get(path, {}).get("count", 0)),
            count_b=int(flat_b.get(path, {}).get("count", 0)),
            total_a=float(flat_a.get(path, {}).get("total_seconds", 0.0)),
            total_b=float(flat_b.get(path, {}).get("total_seconds", 0.0)),
            self_a=float(flat_a.get(path, {}).get("self_seconds", 0.0)),
            self_b=float(flat_b.get(path, {}).get("self_seconds", 0.0)),
        )
        for path in sorted(set(flat_a) | set(flat_b))
    ]
    deltas.sort(key=lambda delta: -abs(delta.self_delta))
    return deltas


def render_metrics_diff(
    record_a: RunRecord, record_b: RunRecord, top: Optional[int] = None
) -> str:
    """The ``repro metrics diff`` report between two history records."""
    from repro.experiments.report import render_table

    deltas = diff_summaries(record_a.summary, record_b.summary)
    wall_delta = record_b.wall_clock_seconds - record_a.wall_clock_seconds
    shown = deltas[:top] if top is not None else deltas
    rows = []
    for delta in shown:
        share = (
            f"{delta.self_delta / wall_delta:+.0%}"
            if abs(wall_delta) > 1e-12
            else "-"
        )
        rows.append(
            [
                delta.path,
                f"{delta.count_a}->{delta.count_b}",
                f"{delta.total_a:.3f}",
                f"{delta.total_b:.3f}",
                f"{delta.total_delta:+.3f}",
                f"{delta.self_delta:+.3f}",
                "-" if delta.ratio is None else f"{delta.ratio:.2f}x",
                share,
            ]
        )
    table = render_table(
        ["span path", "calls", "total_a_s", "total_b_s", "d_total_s", "d_self_s", "ratio", "wall%"],
        rows,
        title=(
            f"Metrics diff — {record_a.run_id} vs {record_b.run_id} "
            f"(self-time attribution)"
        ),
    )
    lines = [
        table,
        (
            f"wall clock: {record_a.wall_clock_seconds:.3f}s -> "
            f"{record_b.wall_clock_seconds:.3f}s ({wall_delta:+.3f}s)"
        ),
    ]
    culprit = next((delta for delta in deltas if abs(delta.self_delta) > 1e-12), None)
    if culprit is not None:
        direction = "regression" if culprit.self_delta > 0 else "improvement"
        attribution = (
            f", {culprit.self_delta / wall_delta:.0%} of the wall-clock delta"
            if abs(wall_delta) > 1e-12
            else ""
        )
        lines.append(
            f"largest self-time {direction}: {culprit.path} "
            f"({culprit.self_delta:+.3f}s{attribution})"
        )
    return "\n".join(lines)


__all__ = ["SpanDelta", "diff_summaries", "flatten_summary", "render_metrics_diff"]
