"""The live campaign monitor behind ``--monitor``.

A :class:`CampaignMonitor` subscribes to span-end events on the run's
recorder and repaints one carriage-return status line per refresh: current
phase, completed evaluations and rate, p50/p95 per-evaluation latency,
engine-cache hit ratio, resident shards, and RSS.  Everything it shows is
derived from the recorder (spans, counters, gauges) plus the injectable
resource sampler, and every timestamp comes off the recorder's clock — so
under a fake clock and a fake RSS probe the rendered byte stream is
bit-identical run to run, which the tests assert literally.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Optional, TextIO

from repro.metrics.gauges import ResourceSampler
from repro.metrics.record import engine_cache_stats
from repro.telemetry import EVALUATION_SPANS, duration_percentile
from repro.telemetry.recorder import SpanRecord, TelemetryRecorder
from repro.utils.resources import peak_rss_bytes

#: Span name -> campaign phase shown while those spans are completing.
_PHASE_OF_SPAN = {
    "engine.cache.read": "populate",
    "engine.cache.write": "populate",
    "engine.generate": "populate",
    "engine.generate_chunk": "populate",
    "engine.shard.generate": "populate",
    "engine.shard.load": "populate",
    "sweeps.populations": "populate",
    "loadgen.populations": "populate",
    "sweeps.scenario": "evaluate",
    "loadgen.event": "evaluate",
    "temporal.week": "evaluate",
    "optimize.joint": "optimize",
    "temporal.retrain": "retrain",
}


class CampaignMonitor:
    """In-terminal refreshing status line driven by span-end subscriptions."""

    def __init__(
        self,
        recorder: TelemetryRecorder,
        stream: Optional[TextIO] = None,
        interval: float = 0.5,
        rss_probe: Callable[[], int] = peak_rss_bytes,
    ) -> None:
        self._recorder = recorder
        self._stream = stream if stream is not None else sys.stderr
        self._interval = float(interval)
        self._sampler = ResourceSampler(
            probe=rss_probe, clock=recorder.clock, interval=interval
        )
        self._durations: List[float] = []
        self._phase = "starting"
        self._events = 0
        self._started = recorder.clock()
        self._last_render: Optional[float] = None
        self._last_width = 0
        self._closed = False
        self._callback = recorder.subscribe(self._on_span_end)

    # ------------------------------------------------------------- callbacks
    def _on_span_end(self, span: SpanRecord) -> None:
        phase = _phase_of(span)
        if phase is not None:
            self._phase = phase
        if span.name in EVALUATION_SPANS:
            self._events += 1
            self._durations.append(span.duration)
        self._sampler.maybe_sample()
        now = self._recorder.clock()
        if self._last_render is not None and now - self._last_render < self._interval:
            return
        self._last_render = now
        self._render(now)

    # -------------------------------------------------------------- rendering
    def status_line(self, now: Optional[float] = None) -> str:
        """The current status line (without the carriage return / padding)."""
        if now is None:
            now = self._recorder.clock()
        elapsed = now - self._started
        rate = (self._events / elapsed) if elapsed > 0 else 0.0
        if self._durations:
            p50 = duration_percentile(self._durations, 50.0) * 1e3
            p95 = duration_percentile(self._durations, 95.0) * 1e3
            latency = f"p50={p50:.1f}ms p95={p95:.1f}ms"
        else:
            latency = "p50=- p95=-"
        cache_stats = engine_cache_stats(self._recorder.counters)
        reads = cache_stats["hits"] + cache_stats["misses"]
        cache = f"{cache_stats['hit_ratio']:.0%}" if reads else "-"
        gauges = self._recorder.gauges
        shards = gauges.get("engine.shards_resident")
        shards_text = f"{shards:.0f}" if shards is not None else "-"
        rss = gauges.get("process.rss_bytes")
        rss_text = f"{rss / (1024.0 * 1024.0):.1f}MiB" if rss is not None else "-"
        return (
            f"[monitor] phase={self._phase} {self._events} done {rate:.2f}/s "
            f"{latency} cache={cache} shards={shards_text} rss={rss_text}"
        )

    def _render(self, now: float, final: bool = False) -> None:
        line = self.status_line(now)
        padding = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        self._stream.write("\r" + line + padding)
        if final:
            self._stream.write("\n")
        self._stream.flush()

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        """Unsubscribe, take a final RSS sample, and write the final line."""
        if self._closed:
            return
        self._closed = True
        self._recorder.unsubscribe(self._callback)
        self._sampler.sample()
        self._render(self._recorder.clock(), final=True)

    def __enter__(self) -> "CampaignMonitor":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False


def _phase_of(span: SpanRecord) -> Optional[str]:
    """The campaign phase a completed span implies, if any."""
    if span.name == "loadgen.phase":
        kind = span.attributes.get("kind")
        return str(kind) if kind else "load"
    return _PHASE_OF_SPAN.get(span.name)


__all__ = ["CampaignMonitor"]
