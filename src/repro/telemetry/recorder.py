"""The span tracer and counter registry at the heart of :mod:`repro.telemetry`.

Two recorder implementations share one duck-typed surface:

* :class:`TelemetryRecorder` — records completed spans (monotonic start/end,
  nesting via an explicit stack, attached attributes), accumulates named
  counters and gauges, merges snapshots recorded by process-pool workers,
  and notifies span-end subscribers (how the ``--monitor`` line follows a
  run).
* :class:`NullRecorder` — the process-wide default.  Every operation is a
  no-op returning shared singletons, so instrumented hot paths pay only a
  function call and an (empty) kwargs dict per span; the overhead is
  benchmarked in ``benchmarks/test_bench_telemetry.py``.

The *current* recorder is module-global state manipulated with
:func:`use_recorder` (the CLI installs one around a run when ``--trace`` is
passed) and consulted by the free functions :func:`trace_span`,
:func:`add_count` and :func:`set_gauge` that instrumented modules call.

Determinism contract: for a fixed seed and configuration the recorded span
*tree* (names, nesting, attributes, counters — everything except timings and
process labels) is identical run to run, so traces are diffable; see
:meth:`TelemetryRecorder.tree`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: Schema version stamped on snapshots and JSONL trace files.
TRACE_FORMAT_VERSION = 1

#: Signature of a span-end subscriber.
SpanCallback = Callable[["SpanRecord"], None]

#: Seconds clock used by default; injectable for deterministic tests.
Clock = Callable[[], float]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    ``span_id``/``parent_id`` encode the tree (ids are assigned in *start*
    order, so they are deterministic for a deterministic workload); ``start``
    and ``end`` are seconds on the recorder's clock — comparable within one
    process, not across processes.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attributes: Mapping[str, Any] = field(default_factory=dict)
    process: str = "main"

    @property
    def duration(self) -> float:
        """Wall-clock seconds between span start and end."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (the ``span`` line of a JSONL trace)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "process": self.process,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            span_id=int(payload["id"]),
            parent_id=None if payload.get("parent") is None else int(payload["parent"]),
            name=str(payload["name"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            attributes=dict(payload.get("attributes", {})),
            process=str(payload.get("process", "main")),
        )


class _NullSpan:
    """The span handle the :class:`NullRecorder` hands out: does nothing."""

    __slots__ = ()
    name: Optional[str] = None
    duration: Optional[float] = None
    attributes: Mapping[str, Any] = {}

    def set(self, **attributes: Any) -> None:
        """Discard attributes."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


#: Shared no-op span handle (never mutated, safe to reuse).
NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default recorder: telemetry disabled, every call a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """A reusable no-op context manager."""
        return NULL_SPAN

    def count(self, name: str, value: int = 1) -> None:
        """Discard the increment."""

    def gauge(self, name: str, value: float) -> None:
        """Discard the gauge."""

    def clock(self) -> float:
        """The default monotonic clock (no recorder installed to override it)."""
        return time.perf_counter()


#: The process-wide disabled recorder.
NULL_RECORDER = NullRecorder()


class ActiveSpan:
    """The handle yielded inside a ``with trace_span(...)`` block.

    Exposes :meth:`set` for attaching attributes mid-span; after the block
    exits, :attr:`duration` holds the measured wall-clock seconds.
    """

    __slots__ = ("span_id", "parent_id", "name", "attributes", "duration", "_start")

    def __init__(
        self, span_id: int, parent_id: Optional[int], name: str, attributes: Dict[str, Any]
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.duration: Optional[float] = None
        self._start: float = 0.0

    def set(self, **attributes: Any) -> None:
        """Attach (or overwrite) span attributes."""
        self.attributes.update(attributes)


class _SpanContext:
    """Context manager produced by :meth:`TelemetryRecorder.span`."""

    __slots__ = ("_recorder", "_name", "_attributes", "_span")

    def __init__(self, recorder: "TelemetryRecorder", name: str, attributes: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._attributes = attributes
        self._span: Optional[ActiveSpan] = None

    def __enter__(self) -> ActiveSpan:
        self._span = self._recorder._start_span(self._name, self._attributes)
        return self._span

    def __exit__(self, *exc_info: Any) -> bool:
        self._recorder._end_span(self._span)
        return False


class TelemetryRecorder:
    """Records spans, counters and gauges for one run.

    Parameters
    ----------
    clock:
        Seconds counter used for every span start/end; injectable so
        deterministic tests (and the load-generation orchestrator's fake
        clock) reproduce timings bit for bit.  Defaults to
        :func:`time.perf_counter`.
    process:
        Label stamped on every recorded span — ``main`` in the parent,
        ``worker-<pid>`` in pool workers (see :func:`worker_process_label`).
    """

    enabled = True

    def __init__(self, clock: Clock = time.perf_counter, process: str = "main") -> None:
        self._clock = clock
        self.process = process
        self._spans: List[SpanRecord] = []
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._stack: List[int] = []
        self._next_id = 1
        self._subscribers: List[SpanCallback] = []

    # ----------------------------------------------------------------- spans
    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """A context manager recording one span named ``name``."""
        return _SpanContext(self, name, attributes)

    def clock(self) -> float:
        """A reading of this recorder's (injectable) clock."""
        return self._clock()

    def _start_span(self, name: str, attributes: Dict[str, Any]) -> ActiveSpan:
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else None
        span = ActiveSpan(span_id, parent_id, name, attributes)
        self._stack.append(span_id)
        span._start = self._clock()
        return span

    def _end_span(self, span: Optional[ActiveSpan]) -> None:
        end = self._clock()
        if span is None:  # pragma: no cover - defensive (enter never ran)
            return
        self._stack.pop()
        span.duration = end - span._start
        record = SpanRecord(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            start=span._start,
            end=end,
            attributes=span.attributes,
            process=self.process,
        )
        self._spans.append(record)
        for subscriber in self._subscribers:
            subscriber(record)

    # --------------------------------------------------------------- counters
    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    # ------------------------------------------------------------------ state
    @property
    def spans(self) -> Tuple[SpanRecord, ...]:
        """Completed spans, in end order."""
        return tuple(self._spans)

    @property
    def counters(self) -> Dict[str, int]:
        """Current counter values."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        """Current gauge values."""
        return dict(self._gauges)

    @property
    def open_span_id(self) -> Optional[int]:
        """Id of the innermost span currently open (None at the top level)."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------ subscribers
    def subscribe(self, callback: SpanCallback) -> SpanCallback:
        """Call ``callback`` with every :class:`SpanRecord` as it completes.

        Merged worker spans (see :meth:`merge`) are delivered too, at merge
        time.  Returns ``callback`` so it can be handed to
        :meth:`unsubscribe`.
        """
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: SpanCallback) -> None:
        """Stop delivering span-end events to ``callback``."""
        self._subscribers.remove(callback)

    # ------------------------------------------------------------- merge/export
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of everything recorded so far.

        This is what pool workers ship back to the parent (see
        :meth:`merge`) and what the exporters in
        :mod:`repro.telemetry.export` serialise.
        """
        return {
            "version": TRACE_FORMAT_VERSION,
            "process": self.process,
            "spans": [span.to_dict() for span in self._spans],
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a worker's :meth:`snapshot` into this recorder.

        Span ids are re-based past this recorder's id space; the worker's
        root spans are re-parented under the span currently open here (so a
        scenario evaluated in a pool worker nests under the parent's
        ``sweeps.run`` span exactly like a serially evaluated one).  Counters
        add, gauges last-write-win, and subscribers see every merged span —
        which is why cross-process counter totals equal serial totals bit
        for bit.
        """
        offset = self._next_id
        attach_to = self.open_span_id
        max_id = 0
        for payload in snapshot.get("spans", ()):
            original = SpanRecord.from_dict(payload)
            max_id = max(max_id, original.span_id)
            record = SpanRecord(
                span_id=original.span_id + offset,
                parent_id=(
                    attach_to if original.parent_id is None else original.parent_id + offset
                ),
                name=original.name,
                start=original.start,
                end=original.end,
                attributes=original.attributes,
                process=original.process,
            )
            self._spans.append(record)
            for subscriber in self._subscribers:
                subscriber(record)
        self._next_id = offset + max_id + 1
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, float(value))

    # ------------------------------------------------------------------- tree
    def tree(self) -> List[Dict[str, Any]]:
        """The deterministic span tree: names, attributes and children only.

        Timings and process labels are stripped, so two runs of the same
        seeded workload produce equal trees — the diffability contract the
        telemetry tests pin down.
        """
        nodes: Dict[int, Dict[str, Any]] = {
            span.span_id: {
                "name": span.name,
                "attributes": dict(span.attributes),
                "children": [],
            }
            for span in self._spans
        }
        roots: List[Dict[str, Any]] = []
        # Spans are stored in end order (children before parents); iterating
        # in *id* order restores deterministic start order at every level.
        for span in sorted(self._spans, key=lambda item: item.span_id):
            node = nodes[span.span_id]
            if span.parent_id is not None and span.parent_id in nodes:
                nodes[span.parent_id]["children"].append(node)
            else:
                roots.append(node)
        return roots


# --------------------------------------------------------------------------
# The current-recorder machinery instrumented modules call into.
# --------------------------------------------------------------------------
_CURRENT: List[Any] = [NULL_RECORDER]


def get_recorder():
    """The recorder instrumentation currently records into."""
    return _CURRENT[-1]


@contextmanager
def use_recorder(recorder) -> Iterator[Any]:
    """Install ``recorder`` as the current recorder for the ``with`` block."""
    _CURRENT.append(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.pop()


def trace_span(name: str, **attributes: Any):
    """Record a span named ``name`` on the current recorder.

    The one-line instrumentation point::

        with trace_span("engine.generate", host_count=350) as span:
            ...
            span.set(cache_hit=False)

    With the default :class:`NullRecorder` this is a cheap no-op.
    """
    return _CURRENT[-1].span(name, **attributes)


def add_count(name: str, value: int = 1) -> None:
    """Increment the counter ``name`` on the current recorder."""
    _CURRENT[-1].count(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set the gauge ``name`` on the current recorder."""
    _CURRENT[-1].gauge(name, value)


def monotonic_now() -> float:
    """A monotonic seconds reading from the current recorder's clock.

    This is the sanctioned seam for duration measurement outside the
    telemetry module (enforced by ``repro lint`` rule REP002): with no
    recorder installed it is :func:`time.perf_counter`, and under a
    fake-clock :class:`TelemetryRecorder` every duration derived from it
    becomes deterministic and replayable.
    """
    return _CURRENT[-1].clock()


def worker_process_label() -> str:
    """The process label pool workers stamp on their spans."""
    import os

    return f"worker-{os.getpid()}"


@contextmanager
def child_recorder() -> Iterator[TelemetryRecorder]:
    """A fresh recorder for a process-pool worker's task.

    Workers record locally into it; the caller ships
    ``recorder.snapshot()`` back with the task result and the parent folds
    it in with :meth:`TelemetryRecorder.merge`::

        with child_recorder() as recorder:
            result = do_work()
        return result, recorder.snapshot()
    """
    recorder = TelemetryRecorder(process=worker_process_label())
    with use_recorder(recorder):
        yield recorder
