"""Periodic heap snapshots: the time-series leg of the telemetry layer.

:class:`HeapSampler` runs on an :class:`~repro.obs.events.EventBus`'s
row clock (:attr:`~repro.obs.events.EventBus.on_row`) and, exactly
every ``every`` recorded rows, captures a :class:`SamplePoint` — the
live/high-water/fragmentation state from
:func:`repro.heap.metrics.snapshot` (O(1)) plus the budget ledger's
remaining words.  The resulting series is what ``repro report`` and
:mod:`repro.analysis.timeline` render as "waste over time".

The clock ticks once per tape row, so moves, budget charges and stage
transitions advance it too: the cadence is defined over the unified
event stream.  It has to tick online, not in a replay of the tape at
run end: an allocation's ``budget_charge`` row is recorded after the
object is placed but before its ``alloc`` row, so a sample taken at the
charge already sees the object, which a replay of the rows would place
one row late.  The clock builds no event object.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..heap.heap import SimHeap
from ..heap.metrics import snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventBus
    from .tape import EventTape

__all__ = ["SamplePoint", "HeapSampler"]


@dataclass(frozen=True)
class SamplePoint:
    """One instant of heap + budget state.

    ``seq`` is the row index (the event's ``seq``) of the row that
    triggered the sample (``-1`` for forced samples), ``event_index``
    the number of rows the sampler's clock had counted at capture
    time.
    """

    seq: int
    event_index: int
    live_words: int
    live_objects: int
    high_water: int
    free_words: int
    free_gaps: int
    largest_gap: int
    external_fragmentation: float
    budget_remaining: float

    def waste_factor(self, live_space_bound: int) -> float:
        """``HS / M`` at this instant."""
        if live_space_bound <= 0:
            raise ValueError("live_space_bound must be positive")
        return self.high_water / live_space_bound

    def to_dict(self) -> dict:
        """JSON-ready flat dict (manifest ``samples`` entries)."""
        return asdict(self)


class HeapSampler:
    """Produces a :class:`SamplePoint` every K rows of a bus's tape."""

    def __init__(
        self,
        heap: SimHeap,
        budget=None,
        *,
        every: int = 256,
        live_bound: int | None = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        self.heap = heap
        #: Any ledger with a ``remaining`` property (duck-typed), or None.
        self.budget = budget
        self.every = every
        #: The contract bound ``M``, if known — enables waste series.
        self.live_bound = live_bound
        self.samples: list[SamplePoint] = []
        self._events = 0
        #: The attached bus's tape (its length gives a sample's ``seq``).
        self._tape: "EventTape | None" = None

    @property
    def events_seen(self) -> int:
        """Rows counted by this sampler's clock so far."""
        return self._events

    def attach(self, bus: "EventBus") -> "HeapSampler":
        """Become ``bus``'s row clock, counting every row it records
        from now on; returns self."""
        if bus.on_row is not None:
            raise ValueError("the bus already has a row clock")
        self._tape = bus.tape
        bus.on_row = self.tick
        return self

    def tick(self) -> None:
        """Count one recorded row (the row clock :meth:`attach`
        installs); samples on every ``every``-th."""
        self._events += 1
        if self._events % self.every == 0:
            self.sample(seq=len(self._tape) - 1)

    def sample(self, *, seq: int = -1) -> SamplePoint:
        """Capture a sample now (also the automatic cadence path)."""
        metrics = snapshot(self.heap)
        remaining = float(self.budget.remaining) if self.budget is not None else 0.0
        point = SamplePoint(
            seq=seq,
            event_index=self._events,
            live_words=metrics.live_words,
            live_objects=metrics.live_objects,
            high_water=metrics.high_water,
            free_words=metrics.free_words,
            free_gaps=metrics.free_gaps,
            largest_gap=metrics.largest_gap,
            external_fragmentation=metrics.external_fragmentation,
            budget_remaining=remaining,
        )
        self.samples.append(point)
        return point

    # Series accessors --------------------------------------------------------

    def series(self, field: str) -> tuple[list[int], list[float]]:
        """(event indices, values of ``field``) over all samples."""
        xs = [point.event_index for point in self.samples]
        ys = [float(getattr(point, field)) for point in self.samples]
        return xs, ys

    def waste_series(self) -> tuple[list[int], list[float]]:
        """(event indices, HS/M) — requires ``live_bound`` to be set."""
        if self.live_bound is None:
            raise ValueError("waste series needs live_bound (the contract M)")
        xs = [point.event_index for point in self.samples]
        ys = [point.waste_factor(self.live_bound) for point in self.samples]
        return xs, ys

    def to_dicts(self) -> list[dict]:
        """Every sample as a JSON-ready dict, in capture order."""
        return [point.to_dict() for point in self.samples]
