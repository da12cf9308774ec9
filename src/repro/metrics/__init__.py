"""Persistent run metrics: history registry, resource gauges, exports, monitor.

The fleet-observability layer on top of :mod:`repro.telemetry`'s per-run
tracer.  Four pieces:

* :mod:`repro.metrics.record` — every CLI run with ``--metrics PATH`` appends
  a schema-versioned :class:`RunRecord` (span summary tree, counters, gauges,
  engine-cache and shard stats, peak RSS, wall clock) to an append-only
  ``metrics.jsonl`` history.
* :mod:`repro.metrics.gauges` — the :class:`ResourceSampler` publishing
  ``process.rss_bytes`` (off by default, deterministic under fakes); the
  engine-side gauges live at their instrumentation sites.
* :mod:`repro.metrics.export` — OpenMetrics/Prometheus text exposition plus
  the strict parser CI validates it with.
* :mod:`repro.metrics.monitor` / :mod:`repro.metrics.diff` — the ``--monitor``
  live status line and ``repro metrics diff`` span-level regression
  attribution.
"""

from repro.metrics.diff import (
    SpanDelta,
    diff_summaries,
    flatten_summary,
    render_metrics_diff,
)
from repro.metrics.export import (
    EXPORT_FORMATS,
    export_record,
    metric_name,
    openmetrics_text,
    parse_openmetrics,
)
from repro.metrics.gauges import ResourceSampler
from repro.metrics.monitor import CampaignMonitor
from repro.metrics.record import (
    DEFAULT_HISTORY_NAME,
    METRICS_HISTORY_ENV,
    METRICS_SCHEMA_VERSION,
    MetricsHistory,
    RunRecord,
    annotate_run,
    build_run_record,
    collect_annotations,
    engine_cache_stats,
)

__all__ = [
    "DEFAULT_HISTORY_NAME",
    "EXPORT_FORMATS",
    "METRICS_HISTORY_ENV",
    "METRICS_SCHEMA_VERSION",
    "CampaignMonitor",
    "MetricsHistory",
    "ResourceSampler",
    "RunRecord",
    "SpanDelta",
    "annotate_run",
    "build_run_record",
    "collect_annotations",
    "diff_summaries",
    "engine_cache_stats",
    "export_record",
    "flatten_summary",
    "metric_name",
    "openmetrics_text",
    "parse_openmetrics",
    "render_metrics_diff",
]
