"""Typed telemetry events and the recording :class:`EventBus`.

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

Each event's ``seq`` is its row index on the bus's tape, one monotone
clock shared by every kind.

**One producer, one record.**  The
:class:`~repro.adversary.driver.ExecutionDriver` is the only code that
writes to a bus: it mediates every program request, every budgeted
move and every phase the program announces through its view, and
calls the bus's per-kind methods (:meth:`EventBus.emit_alloc` and
siblings) behind one ``if bus is not None``.  Each call appends one
row to the bus's :class:`~repro.obs.tape.EventTape`, typed columns from
which the run's canonical digest, its stored ``events.tape`` and its
metrics are computed at run end; no event object is built, and an
uninstrumented run pays one pointer comparison per operation.  The one
online consumer, the heap sampler, rides the bus's *row clock*
(:attr:`EventBus.on_row`): a callback run after every recorded row.
The dataclasses below are the events' definition (the tape derives its
encoders from their fields) and the form :meth:`EventTape.events
<repro.obs.tape.EventTape.events>` reads rows back into.
``tools/check_overhead.py`` and
``benchmarks/bench_sanitizer_overhead.py`` hold the recording path to
its throughput budget.
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
    "event_from_dict",
]


@dataclass
class TelemetryEvent:
    """Base class for all telemetry events.

    ``seq`` is the event's row index on its tape (``-1`` for an event
    built outside one).  Subclasses set the ``kind`` class attribute,
    which keys the JSONL encoding.
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
    """Records every event of one run as a row of its tape.

    The bus owns the run's :class:`~repro.obs.tape.EventTape`: every
    event becomes one tape row, and the row index is the event's
    ``seq``, so the driver's requests, moves, ledger charges and the
    program's stage announcements interleave on one shared clock.  The
    driver calls the per-kind methods (:meth:`emit_alloc` and
    siblings); each appends its row and then runs :attr:`on_row`, when
    set.
    """

    __slots__ = ("tape", "on_row")

    def __init__(self) -> None:
        from .tape import EventTape  # the tape module imports the events

        #: Every event so far, one row each (see :mod:`repro.obs.tape`).
        self.tape = EventTape()
        #: The row clock: called with no arguments after every row the
        #: bus records (the :class:`~repro.obs.sampler.HeapSampler`
        #: cadence), or None.
        self.on_row: Callable[[], None] | None = None

    @property
    def event_count(self) -> int:
        """Events recorded so far (the next event's ``seq``)."""
        return len(self.tape)

    # Per-kind producers: one tape row each, then the row clock.

    def emit_alloc(self, object_id: int, size: int, address: int,
                   latency_ns: int = 0) -> None:
        """Record an :class:`Alloc`."""
        self.tape.append_alloc(object_id, size, address, latency_ns)
        if self.on_row is not None:
            self.on_row()

    def emit_free(self, object_id: int, size: int, address: int) -> None:
        """Record a :class:`Free`."""
        self.tape.append_free(object_id, size, address)
        if self.on_row is not None:
            self.on_row()

    def emit_move(self, object_id: int, size: int, old_address: int,
                  new_address: int) -> None:
        """Record a :class:`Move`."""
        self.tape.append_move(object_id, size, old_address, new_address)
        if self.on_row is not None:
            self.on_row()

    def emit_window(self, request_size: int, moves: int,
                    moved_words: int) -> None:
        """Record a :class:`CompactionWindow`."""
        self.tape.append_window(request_size, moves, moved_words)
        if self.on_row is not None:
            self.on_row()

    def emit_stage(self, program: str, stage: str, step: int,
                   label: str = "") -> None:
        """Record a :class:`StageTransition`."""
        self.tape.append_stage(program, stage, step, label)
        if self.on_row is not None:
            self.on_row()

    def emit_charge(self, reason: str, words: int, remaining: float) -> None:
        """Record a :class:`BudgetCharge`."""
        self.tape.append_charge(reason, words, remaining)
        if self.on_row is not None:
            self.on_row()
