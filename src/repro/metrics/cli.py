"""``repro metrics`` subcommands: list, show, export, and diff run history.

Wired into the main ``repro`` parser by :func:`add_metrics_parser` (see
:mod:`repro.sweeps.cli`)::

    repro sweep run demo --metrics metrics.jsonl   # record a run
    repro metrics list --history metrics.jsonl     # one row per recorded run
    repro metrics show -1 --history metrics.jsonl  # latest run in full
    repro metrics export -1 --format openmetrics   # Prometheus-scrapable text
    repro metrics diff -2 -1                       # attribute the slowdown

Runs are addressed by exact run id or by append-order index (``0`` oldest,
``-1`` latest).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.metrics.diff import render_metrics_diff
from repro.metrics.export import EXPORT_FORMATS, export_record
from repro.metrics.record import (
    DEFAULT_HISTORY_NAME,
    METRICS_HISTORY_ENV,
    MetricsHistory,
    RunRecord,
)
from repro.telemetry.report import summary_rows


def _history(args: argparse.Namespace) -> MetricsHistory:
    return MetricsHistory(args.history)


def _default_history() -> str:
    return os.environ.get(METRICS_HISTORY_ENV) or DEFAULT_HISTORY_NAME


def render_run_record(record: RunRecord) -> str:
    """The full ``repro metrics show`` rendering of one history record."""
    from repro.experiments.report import render_table

    lines = [
        f"run {record.run_id} — {record.command}",
        f"  recorded:   {record.timestamp} (schema v{record.schema})",
        f"  wall clock: {record.wall_clock_seconds:.3f}s",
        f"  peak RSS:   {record.peak_rss_bytes / (1024.0 * 1024.0):.1f} MiB",
        (
            f"  engine cache: {record.engine_cache.get('hits', 0)} hit(s), "
            f"{record.engine_cache.get('misses', 0)} miss(es) "
            f"({record.engine_cache.get('hit_ratio', 0.0):.0%} hit ratio)"
        ),
        (
            f"  shards: {record.shards.get('loaded', 0)} loaded, "
            f"{record.shards.get('resident', 0.0):.0f} resident "
            f"({record.shards.get('bytes_resident', 0.0) / (1024.0 * 1024.0):.1f} MiB)"
        ),
    ]
    for key in sorted(record.annotations):
        lines.append(f"  {key}: {record.annotations[key]}")
    rows = summary_rows(record.summary)
    if rows:
        lines.append(
            render_table(
                ["span", "count", "total_s", "self_s", "p50_ms", "p95_ms"],
                rows,
                title="Span summary",
            )
        )
    if record.counters:
        lines.append(
            render_table(
                ["counter", "value"],
                [[name, str(record.counters[name])] for name in sorted(record.counters)],
                title="Counters",
            )
        )
    if record.gauges:
        lines.append(
            render_table(
                ["gauge", "value"],
                [[name, f"{record.gauges[name]:.0f}"] for name in sorted(record.gauges)],
                title="Gauges",
            )
        )
    return "\n".join(lines)


def _cmd_metrics_list(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table

    history = _history(args)
    records = history.records()
    if not records:
        print(
            f"error: metrics history {history.path} is empty or missing; "
            f"record a run with `repro sweep run ... --metrics {history.path}`",
            file=sys.stderr,
        )
        return 1
    rows = []
    for index, record in enumerate(records):
        rows.append(
            [
                str(index),
                record.run_id,
                record.command,
                record.timestamp,
                f"{record.wall_clock_seconds:.2f}",
                str(record.counters.get("sweeps.scenarios_evaluated", 0)),
                f"{record.engine_cache.get('hit_ratio', 0.0):.0%}",
                f"{record.peak_rss_bytes / (1024.0 * 1024.0):.0f}",
            ]
        )
    print(
        render_table(
            ["#", "run id", "command", "recorded", "wall_s", "scenarios", "cache", "rss_mib"],
            rows,
            title=f"Run metrics history — {history.path}",
        )
    )
    return 0


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    print(render_run_record(_history(args).select(args.run)))
    return 0


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    record = _history(args).select(args.run)
    text = export_record(record, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{args.format} export of run {record.run_id} written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    history = _history(args)
    record_a = history.select(args.run_a)
    record_b = history.select(args.run_b)
    print(render_metrics_diff(record_a, record_b, top=args.top))
    return 0


def add_metrics_parser(subcommands, add_output_flags=None) -> None:
    """Register the ``metrics`` subcommand on the main ``repro`` parser."""
    metrics = subcommands.add_parser(
        "metrics", help="query the persistent run-metrics history"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)

    def common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--history",
            default=_default_history(),
            metavar="PATH",
            help=f"metrics history JSONL (default: ${METRICS_HISTORY_ENV} "
            f"or {DEFAULT_HISTORY_NAME})",
        )
        if add_output_flags is not None:
            add_output_flags(parser)

    listing = metrics_sub.add_parser("list", help="one row per recorded run")
    common(listing)
    listing.set_defaults(handler=_cmd_metrics_list)

    show = metrics_sub.add_parser(
        "show", help="full summary tree, counters and gauges of one run"
    )
    show.add_argument("run", help="run id, or append-order index (-1 = latest)")
    common(show)
    show.set_defaults(handler=_cmd_metrics_show)

    export = metrics_sub.add_parser(
        "export", help="export one run for external scrapers"
    )
    export.add_argument(
        "run",
        nargs="?",
        default="-1",
        help="run id, or append-order index (default: -1, the latest)",
    )
    export.add_argument(
        "--format",
        default="openmetrics",
        choices=EXPORT_FORMATS,
        help="openmetrics (Prometheus text exposition) or json",
    )
    export.add_argument(
        "--output", default=None, metavar="PATH", help="write here instead of stdout"
    )
    common(export)
    export.set_defaults(handler=_cmd_metrics_export)

    diff = metrics_sub.add_parser(
        "diff", help="align two runs' span summaries and attribute the wall-clock delta"
    )
    diff.add_argument("run_a", help="baseline run id or index")
    diff.add_argument("run_b", help="comparison run id or index")
    diff.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N largest self-time deltas",
    )
    common(diff)
    diff.set_defaults(handler=_cmd_metrics_diff)


__all__ = ["add_metrics_parser", "render_run_record"]
