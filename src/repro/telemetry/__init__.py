"""Unified run telemetry: span tracing, counters/gauges, and trace export.

Instrumented modules call the free functions (:func:`trace_span`,
:func:`add_count`, :func:`set_gauge`); by default they hit the
:data:`NULL_RECORDER` and cost almost nothing.  The CLI installs a
:class:`TelemetryRecorder` with :func:`use_recorder` when ``--trace`` is
passed, then exports via :func:`write_trace` and summarises with
:func:`render_trace_report`.
"""

from repro.telemetry.export import (
    TRACE_FORMATS,
    chrome_trace,
    read_trace_jsonl,
    write_chrome_trace,
    write_trace,
    write_trace_jsonl,
)
from repro.telemetry.recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    TRACE_FORMAT_VERSION,
    NullRecorder,
    SpanRecord,
    TelemetryRecorder,
    add_count,
    child_recorder,
    get_recorder,
    monotonic_now,
    set_gauge,
    trace_span,
    use_recorder,
    worker_process_label,
)
from repro.telemetry.report import (
    SpanSummary,
    duration_percentile,
    render_trace_report,
    summarize_spans,
    summary_payload,
    summary_rows,
    wall_clock_coverage,
)

#: Every span name instrumented code may record.  ``repro lint`` (rule
#: REP003) checks each ``trace_span("...")`` literal against this registry,
#: so a typo'd name fails CI instead of silently fragmenting trace reports.
SPAN_NAMES = (
    "core.assign",
    "core.evaluate",
    "core.measure",
    "core.measure_sizes",
    "core.train",
    "engine.cache.deserialize",
    "engine.cache.read",
    "engine.cache.serialize",
    "engine.cache.write",
    "engine.generate",
    "engine.generate_chunk",
    "engine.shard.generate",
    "engine.shard.load",
    "loadgen.event",
    "loadgen.phase",
    "loadgen.populations",
    "loadgen.run",
    "optimize.joint",
    "sweeps.populations",
    "sweeps.run",
    "sweeps.scenario",
    "temporal.retrain",
    "temporal.timeline",
    "temporal.train",
    "temporal.week",
)

#: Span names that each time one completed evaluation unit: the ``--monitor``
#: line counts them and takes its latencies from them, and every loadgen
#: phase reads one latency sample per such span recorded under it.
EVALUATION_SPANS = frozenset({"sweeps.scenario", "loadgen.event", "temporal.week"})

#: Every counter name instrumented code may increment (REP003, as above).
COUNTER_NAMES = (
    "core.assignments_reused",
    "core.host_weeks_measured",
    "core.trainings_reused",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.hosts_generated",
    "engine.populations_generated",
    "engine.shards_loaded",
    "optimize.assignments",
    "optimize.iterations",
    "sweeps.scenarios_evaluated",
    "sweeps.scenarios_skipped",
    "temporal.retrains",
    "temporal.weeks_measured",
)

#: Every gauge name instrumented code may set (REP003, as above).  Gauges are
#: last-write-wins resource levels — residency and memory, not event counts.
GAUGE_NAMES = (
    "engine.cache_entries",
    "engine.shard_bytes_resident",
    "engine.shards_resident",
    "process.rss_bytes",
)

__all__ = [
    "COUNTER_NAMES",
    "EVALUATION_SPANS",
    "GAUGE_NAMES",
    "NULL_RECORDER",
    "NULL_SPAN",
    "SPAN_NAMES",
    "TRACE_FORMATS",
    "TRACE_FORMAT_VERSION",
    "NullRecorder",
    "SpanRecord",
    "SpanSummary",
    "TelemetryRecorder",
    "add_count",
    "child_recorder",
    "chrome_trace",
    "duration_percentile",
    "get_recorder",
    "monotonic_now",
    "read_trace_jsonl",
    "render_trace_report",
    "set_gauge",
    "summarize_spans",
    "summary_payload",
    "summary_rows",
    "trace_span",
    "use_recorder",
    "wall_clock_coverage",
    "worker_process_label",
    "write_chrome_trace",
    "write_trace",
    "write_trace_jsonl",
]
