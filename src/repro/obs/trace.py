"""Hierarchical span tracing: where the time goes, per phase, per worker.

The telemetry layer (:mod:`repro.obs.events`) records *what happened* —
typed events, metrics, samples.  This module records *when and inside
what*: a :class:`Tracer` maintains a per-thread stack of open
:class:`Span` s (monotonic ``perf_counter_ns`` timing, same clock
domain across ``fork`` ed worker processes on Linux), so nested timing
scopes — a sweep containing tasks containing runs containing stages
containing allocations — come out as a tree.

Three cost tiers, mirroring the event bus's null-sink fast path:

* **no tracer** (``tracer=None`` everywhere) — one pointer comparison
  per operation, nothing else;
* **disabled tracer** (``Tracer(enabled=False)``) — call sites hoist
  ``tracer if tracer.enabled else None`` at construction, so the run
  degenerates to the no-tracer path (``tools/check_overhead.py
  --no-trace-threshold`` enforces the ceiling);
* **coarse tracing** (``fine=False``, the default) — run, stage and
  task spans only: a handful of spans per execution, which is what a
  parallel sweep ships between processes;
* **fine tracing** (``fine=True``) — additionally one span per
  allocation / free / compaction move, carrying bytes-moved and
  :class:`~repro.heap.gap_index.SearchStats` deltas.

Spans never enter the event stream: like the ``placement.*`` metrics
they ride out-of-band, so event digests — and therefore ``repro check
--replay`` — are identical with tracing on or off (digest-neutral by
construction, asserted in ``tests/obs/test_span_trace.py``).

Cross-process aggregation: a worker records spans into its own tracer,
ships them back as plain dicts (:meth:`Tracer.to_dicts` /
``TaskResult.trace_spans``), and the parent re-roots them with
:meth:`Tracer.adopt` — fresh span ids, a parent link into the local
tree, and a per-worker *lane* so the Chrome export renders one track
per worker next to the serial lane.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Union

from .events import StageTransition, TelemetryEvent

__all__ = [
    "TRACE_FILENAME",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "StageSpanSink",
    "active_tracer",
    "write_trace",
    "read_trace",
    "spans_from_dicts",
    "to_chrome_trace",
]

#: The trace file's name inside a recorded run directory.
TRACE_FILENAME = "trace.jsonl"

#: Main-process lane id (workers get 1..N at adoption time).
MAIN_LANE = 0


class Span:
    """One closed (or still-open) timing scope.

    ``start_ns`` / ``end_ns`` are ``time.perf_counter_ns`` readings
    (``end_ns == 0`` while open).  ``lane`` is the worker track the
    span renders in (0 = the main process), ``attrs`` an optional flat
    dict of JSON-able scalars.
    """

    __slots__ = ("span_id", "parent_id", "name", "start_ns", "end_ns",
                 "lane", "attrs")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 start_ns: int, end_ns: int = 0, lane: int = MAIN_LANE,
                 attrs: dict[str, Any] | None = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.lane = lane
        self.attrs = attrs

    @property
    def duration_ns(self) -> int:
        """Closed duration (0 while the span is still open)."""
        if self.end_ns <= 0:
            return 0
        return self.end_ns - self.start_ns

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready flat record (``trace.jsonl`` line schema)."""
        record: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "lane": self.lane,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        parent = record.get("parent_id")
        return cls(
            span_id=int(record["span_id"]),
            parent_id=int(parent) if parent is not None else None,
            name=str(record["name"]),
            start_ns=int(record["start_ns"]),
            end_ns=int(record.get("end_ns", 0)),
            lane=int(record.get("lane", MAIN_LANE)),
            attrs=dict(record["attrs"]) if record.get("attrs") else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, lane={self.lane}, "
                f"dur={self.duration_ns}ns)")


class _SpanContext:
    """The context manager :meth:`Tracer.span` returns (one per enter)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end(self._span)


class _NullSpan:
    """Shared no-op span/context: what a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe hierarchical span recorder.

    Parameters
    ----------
    enabled:
        ``False`` builds a permanent no-op: :meth:`span` returns a
        shared null context, :meth:`begin` returns ``None``, nothing is
        recorded.  Call sites hoist the check (``tracer if tracer and
        tracer.enabled else None``) so the disabled path costs nothing
        per operation.
    fine:
        Record per-operation spans (alloc/free/move) too.  Off by
        default: coarse traces (run/stage/task) are what cross process
        boundaries; fine traces are for single-run drill-downs.
    lane:
        The lane id stamped on locally recorded spans.
    max_spans:
        Hard cap; spans beyond it are dropped (and counted in
        :attr:`dropped`) rather than exhausting memory on a runaway
        fine trace.
    """

    def __init__(self, *, enabled: bool = True, fine: bool = False,
                 lane: int = MAIN_LANE, max_spans: int = 1_000_000) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self.enabled = enabled
        self.fine = fine
        self.lane = lane
        self.max_spans = max_spans
        self.spans: list[Span] = []
        #: Spans discarded after :attr:`max_spans` was reached.
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._clock = time.perf_counter_ns

    # Recording ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current(self) -> Span | None:
        """The innermost open span on this thread (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: Any) -> Any:
        """A context manager timing one scope::

            with tracer.span("compact", bytes=n):
                ...

        Disabled tracers return a shared no-op context, so guards are
        optional (but hot paths should still hoist them).
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, self.begin_unchecked(name, attrs or None))

    def begin(self, name: str, **attrs: Any) -> Span | None:
        """Open a span imperatively (``None`` when disabled).

        Pair with :meth:`end`; the event-driven call sites (stage
        boundaries arriving on the bus) cannot use ``with`` blocks.
        """
        if not self.enabled:
            return None
        return self.begin_unchecked(name, attrs or None)

    def begin_unchecked(self, name: str,
                        attrs: dict[str, Any] | None = None) -> Span:
        """:meth:`begin` minus the enabled check (caller hoisted it)."""
        span = Span(
            span_id=next(self._ids),
            parent_id=(self.current.span_id
                       if self.current is not None else None),
            name=name,
            start_ns=self._clock(),
            lane=self.lane,
            attrs=attrs,
        )
        self._stack().append(span)
        return span

    def end(self, span: Span | None) -> None:
        """Close a span opened by :meth:`begin` (tolerates ``None``)."""
        if span is None:
            return
        span.end_ns = self._clock()
        stack = self._stack()
        # Normal case: LIFO discipline.  Out-of-order ends (a stage
        # span closed while a fine span is open) unwind to the span.
        if span in stack:
            while stack:
                popped = stack.pop()
                if popped is span:
                    break
        self._record(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return
            self.spans.append(span)

    def close_open(self) -> None:
        """Close every span still open on this thread (teardown path)."""
        stack = self._stack()
        while stack:
            span = stack[-1]
            span.end_ns = self._clock()
            stack.pop()
            self._record(span)

    # Bookkeeping -------------------------------------------------------------

    def mark(self) -> int:
        """The current recorded-span count (pair with :meth:`spans_since`)."""
        return len(self.spans)

    def spans_since(self, mark: int) -> list[Span]:
        """Spans recorded after a previous :meth:`mark` call."""
        return self.spans[mark:]

    # Cross-process adoption --------------------------------------------------

    def adopt(self, records: Iterable[Mapping[str, Any]], *, lane: int,
              parent: Span | None = None) -> list[Span]:
        """Re-root foreign spans (a worker's ``to_dicts()``) locally.

        Every adopted span gets a fresh id, the given ``lane``, and —
        for the foreign trace's own roots — ``parent`` as its parent,
        so a worker's whole tree hangs beneath the local task span.
        Timestamps are kept verbatim: ``perf_counter_ns`` is a single
        monotonic domain across forked processes on Linux, which is what
        lets serial and parallel timelines share one axis.
        """
        if not self.enabled:
            return []
        spans = [Span.from_dict(record) for record in records]
        id_map: dict[int, int] = {}
        with self._lock:
            for span in spans:
                id_map[span.span_id] = next(self._ids)
        parent_id = parent.span_id if parent is not None else None
        for span in spans:
            span.span_id = id_map[span.span_id]
            if span.parent_id is not None and span.parent_id in id_map:
                span.parent_id = id_map[span.parent_id]
            else:
                span.parent_id = parent_id
            span.lane = lane
        with self._lock:
            room = self.max_spans - len(self.spans)
            if room < len(spans):
                self.dropped += len(spans) - max(0, room)
                spans = spans[:max(0, room)]
            self.spans.extend(spans)
        return spans

    # Serialization -----------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        """Every recorded span as a JSON/pickle-ready dict."""
        return [span.to_dict() for span in self.spans]


#: A process-wide disabled tracer, for call sites that want a tracer
#: object unconditionally.  This binding predates any pool fork, so
#: worker-side code constructs its own tracer instead of touching it.
NULL_TRACER = Tracer(enabled=False)


def active_tracer(tracer: "Tracer | None") -> "Tracer | None":
    """The hoisted guard: ``tracer`` if it will actually record.

    Collapses both "no tracer" and "disabled tracer" to ``None`` so hot
    loops pay exactly one pointer comparison per operation either way.
    """
    if tracer is not None and tracer.enabled:
        return tracer
    return None


class StageSpanSink:
    """Bus subscriber turning :class:`StageTransition` events into spans.

    The driver does not know the adversary's phase structure — programs
    announce boundaries on the bus.  This sink opens a ``stage:<name>``
    span at each transition and closes the previous one, giving the
    trace Stage I / Stage II (and Robson round) attribution without the
    programs knowing about tracers.  Digest-neutral: it only *listens*.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._open: Span | None = None

    def __call__(self, event: TelemetryEvent) -> None:
        """Deliver one event (the bus-subscriber interface)."""
        if not isinstance(event, StageTransition):
            return
        if self._open is not None:
            self.tracer.end(self._open)
        self._open = self.tracer.begin(
            f"stage:{event.stage}", program=event.program,
            step=event.step, label=event.label,
        )

    def finish(self) -> None:
        """Close the trailing stage span (call after the run returns)."""
        if self._open is not None:
            self.tracer.end(self._open)
            self._open = None


# Persistence ------------------------------------------------------------------

_PathLike = Union[str, Path]


def _trace_path(path: _PathLike) -> Path:
    """Resolve a run directory or bare file to the trace file path."""
    base = Path(path)
    if base.is_dir() or base.suffix == "":
        return base / TRACE_FILENAME
    return base


def write_trace(path: _PathLike, spans: Iterable[Span]) -> Path:
    """Write spans as JSONL (one span per line) into ``path``.

    ``path`` may be a run directory (the file becomes
    ``<path>/trace.jsonl``) or an explicit file path.
    """
    target = _trace_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True))
            handle.write("\n")
    return target


def read_trace(path: _PathLike) -> list[Span]:
    """Parse a ``trace.jsonl`` (or a run directory containing one)."""
    target = _trace_path(path)
    if not target.is_file():
        raise FileNotFoundError(f"no trace file at {target}")
    spans: list[Span] = []
    with target.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def spans_from_dicts(records: Iterable[Mapping[str, Any]]) -> list[Span]:
    """Rebuild spans from ``to_dicts()`` output (no re-rooting)."""
    return [Span.from_dict(record) for record in records]


# Chrome trace_event export ----------------------------------------------------


def to_chrome_trace(spans: Iterable[Span], *,
                    trace_name: str = "repro") -> dict[str, Any]:
    """The Chrome ``trace_event`` JSON document for a span set.

    Loads in Perfetto / ``chrome://tracing``: each lane becomes one
    "process" track (``pid`` = lane, named ``main`` / ``worker-N`` via
    metadata events), complete spans become ``"ph": "X"`` duration
    events with microsecond timestamps rebased to the earliest span.
    """
    spans = [span for span in spans if span.duration_ns > 0]
    events: list[dict[str, Any]] = []
    lanes = sorted({span.lane for span in spans})
    for lane in lanes:
        events.append({
            "ph": "M", "pid": lane, "tid": 0, "name": "process_name",
            "args": {"name": "main" if lane == MAIN_LANE
                     else f"worker-{lane}"},
        })
        events.append({
            "ph": "M", "pid": lane, "tid": 0, "name": "process_sort_index",
            "args": {"sort_index": lane},
        })
    t0 = min((span.start_ns for span in spans), default=0)
    for span in spans:
        event: dict[str, Any] = {
            "ph": "X",
            "pid": span.lane,
            "tid": 0,
            "name": span.name,
            "ts": (span.start_ns - t0) / 1e3,  # lint: float-ok
            "dur": span.duration_ns / 1e3,  # lint: float-ok
        }
        if span.attrs:
            event["args"] = dict(span.attrs)
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"name": trace_name, "lanes": len(lanes)},
    }
