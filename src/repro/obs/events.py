"""Typed telemetry events and the fan-out :class:`EventBus`.

The observability layer speaks one vocabulary: six event types covering
everything that happens during an execution —

* :class:`Alloc` / :class:`Free` — the program's requests, as served;
* :class:`Move` — one compaction move (the manager's paid-for action);
* :class:`CompactionWindow` — a closed compaction window that actually
  moved something, aggregated per allocation request;
* :class:`StageTransition` — adversary phase boundaries (Robson rounds,
  :math:`P_F` Stage I/II steps) so time series can be cut per stage;
* :class:`BudgetCharge` — every ledger mutation, with the remaining
  budget after it.

Events are mutable dataclasses whose ``seq`` field is stamped by the bus
at emission, giving every subscriber a shared monotone clock regardless
of which component produced the event.

**Record once; objects only for subscribers.** Instrumentation call
sites hold an ``EventBus | None`` and emit through the bus's per-kind
methods (:meth:`EventBus.emit_alloc` and siblings) behind one ``if bus
is not None``.  The bus records every event as one row of its
:class:`~repro.obs.tape.EventTape`, typed columns from which the run's
canonical digest, its stored ``events.tape`` and its metrics are
computed at run end.
An event object is built only when someone subscribes: a bus without
subscribers appends a row and nothing else, and an uninstrumented run
pays one pointer comparison per operation.  The one online consumer
that needs no objects, the heap sampler, rides the bus's *row clock*
(:attr:`EventBus.on_row`): a callback run after every recorded row, on
either path.  ``tools/check_overhead.py`` and
``benchmarks/bench_sanitizer_overhead.py`` hold these paths to their
throughput budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, Type

__all__ = [
    "TelemetryEvent",
    "Alloc",
    "Free",
    "Move",
    "CompactionWindow",
    "StageTransition",
    "BudgetCharge",
    "EventBus",
    "EventSink",
    "event_from_dict",
]

#: A subscriber: any callable taking one event.
EventSink = Callable[["TelemetryEvent"], None]


@dataclass
class TelemetryEvent:
    """Base class for all telemetry events.

    ``seq`` is the bus-wide emission index (stamped by
    :meth:`EventBus.emit`; ``-1`` until then).  Subclasses set the
    ``kind`` class attribute, which keys the JSONL encoding.
    """

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        """A JSON-ready flat dict (``kind`` + every field)."""
        record: dict = {"kind": self.kind}
        for field in fields(self):
            record[field.name] = getattr(self, field.name)
        return record


@dataclass
class Alloc(TelemetryEvent):
    """One served allocation request.

    ``latency_ns`` covers the manager's whole service of the request
    (compaction window + placement search), measured by the driver with
    ``perf_counter_ns`` — zero when latency capture is off.
    """

    kind: ClassVar[str] = "alloc"

    object_id: int
    size: int
    address: int
    latency_ns: int = 0
    seq: int = -1


@dataclass
class Free(TelemetryEvent):
    """One program de-allocation."""

    kind: ClassVar[str] = "free"

    object_id: int
    size: int
    address: int
    seq: int = -1


@dataclass
class Move(TelemetryEvent):
    """One compaction move (emitted before the program's move listener
    runs, so a consequent :class:`Free` always follows its move)."""

    kind: ClassVar[str] = "move"

    object_id: int
    size: int
    old_address: int
    new_address: int
    seq: int = -1


@dataclass
class CompactionWindow(TelemetryEvent):
    """A compaction window that moved at least one object.

    Aggregates the window preceding one allocation request:
    ``request_size`` is the allocation being prepared for, ``moves`` /
    ``moved_words`` what the manager spent inside the window.  Windows
    that move nothing are not emitted (they are the overwhelmingly
    common case and carry no information beyond the following
    :class:`Alloc`).
    """

    kind: ClassVar[str] = "compaction_window"

    request_size: int
    moves: int
    moved_words: int
    seq: int = -1


@dataclass
class StageTransition(TelemetryEvent):
    """An adversary phase boundary.

    ``stage`` is the program's phase name (``"I"`` / ``"II"`` for
    :math:`P_F`, ``"robson"`` for :math:`P_R`), ``step`` the round index
    within it.  ``label`` carries the human-readable boundary name; the
    Stage I → Stage II hand-off of :math:`P_F` is labelled
    ``"stage I -> stage II"`` so reports can highlight it.
    """

    kind: ClassVar[str] = "stage_transition"

    program: str
    stage: str
    step: int
    label: str = ""
    seq: int = -1


@dataclass
class BudgetCharge(TelemetryEvent):
    """One compaction-ledger mutation.

    ``reason`` is ``"alloc"`` (accrual) or ``"move"`` (spend);
    ``remaining`` the spendable budget immediately after the charge.
    """

    kind: ClassVar[str] = "budget_charge"

    reason: str
    words: int
    remaining: float
    seq: int = -1


_EVENT_TYPES: Dict[str, Type[TelemetryEvent]] = {
    cls.kind: cls
    for cls in (Alloc, Free, Move, CompactionWindow, StageTransition, BudgetCharge)
}


def event_from_dict(record: dict) -> TelemetryEvent:
    """Inverse of :meth:`TelemetryEvent.to_dict` (raises on unknown kind)."""
    payload = dict(record)
    kind = payload.pop("kind", None)
    cls = _EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown telemetry event kind {kind!r}")
    return cls(**payload)


class EventBus:
    """Records every event on its tape; fans events out to subscribers.

    The bus owns the run's :class:`~repro.obs.tape.EventTape`: every
    event becomes one tape row, and the row index is the event's
    ``seq``, so events from the driver, the budget ledger and the
    adversary program interleave on one shared clock.  Producers call
    the per-kind methods (:meth:`emit_alloc` and siblings).  With no
    subscribers these append the row and build nothing; with
    subscribers they build the dataclass and hand it to :meth:`emit`,
    the one fan-out point.  Either way, :attr:`on_row` (when set) runs
    once the row is recorded.
    """

    __slots__ = ("_sinks", "tape", "on_row")

    def __init__(self) -> None:
        from .tape import EventTape  # the tape module imports the events

        self._sinks: list[EventSink] = []
        #: Every event so far, one row each (see :mod:`repro.obs.tape`).
        self.tape = EventTape()
        #: The row clock: called with no arguments after every row the
        #: bus records, before subscribers see the row's event (the
        #: :class:`~repro.obs.sampler.HeapSampler` cadence), or None.
        self.on_row: Callable[[], None] | None = None

    @property
    def event_count(self) -> int:
        """Events recorded so far (the next event's ``seq``)."""
        return len(self.tape)

    @property
    def sink_count(self) -> int:
        """Number of current subscribers."""
        return len(self._sinks)

    def subscribe(self, sink: EventSink) -> EventSink:
        """Add a subscriber; returns it (handy for inline lambdas)."""
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: EventSink) -> None:
        """Remove a subscriber (raises ``ValueError`` if absent)."""
        self._sinks.remove(sink)

    def emit(self, event: TelemetryEvent) -> None:
        """Stamp ``event.seq``, record its row and deliver it in order."""
        event.seq = len(self.tape)
        self.tape.record(event)
        if self.on_row is not None:
            self.on_row()
        for sink in self._sinks:
            sink(event)

    # Per-kind producers: a tape row, plus an event object for subscribers.

    def emit_alloc(self, object_id: int, size: int, address: int,
                   latency_ns: int = 0) -> None:
        """Emit an :class:`Alloc`."""
        if self._sinks:
            self.emit(Alloc(object_id, size, address, latency_ns))
        else:
            self.tape.append_alloc(object_id, size, address, latency_ns)
            if self.on_row is not None:
                self.on_row()

    def emit_free(self, object_id: int, size: int, address: int) -> None:
        """Emit a :class:`Free`."""
        if self._sinks:
            self.emit(Free(object_id, size, address))
        else:
            self.tape.append_free(object_id, size, address)
            if self.on_row is not None:
                self.on_row()

    def emit_move(self, object_id: int, size: int, old_address: int,
                  new_address: int) -> None:
        """Emit a :class:`Move`."""
        if self._sinks:
            self.emit(Move(object_id, size, old_address, new_address))
        else:
            self.tape.append_move(object_id, size, old_address, new_address)
            if self.on_row is not None:
                self.on_row()

    def emit_window(self, request_size: int, moves: int,
                    moved_words: int) -> None:
        """Emit a :class:`CompactionWindow`."""
        if self._sinks:
            self.emit(CompactionWindow(request_size, moves, moved_words))
        else:
            self.tape.append_window(request_size, moves, moved_words)
            if self.on_row is not None:
                self.on_row()

    def emit_stage(self, program: str, stage: str, step: int,
                   label: str = "") -> None:
        """Emit a :class:`StageTransition`."""
        if self._sinks:
            self.emit(StageTransition(program, stage, step, label))
        else:
            self.tape.append_stage(program, stage, step, label)
            if self.on_row is not None:
                self.on_row()

    def emit_charge(self, reason: str, words: int, remaining: float) -> None:
        """Emit a :class:`BudgetCharge`."""
        if self._sinks:
            self.emit(BudgetCharge(reason, words, remaining))
        else:
            self.tape.append_charge(reason, words, remaining)
            if self.on_row is not None:
                self.on_row()
