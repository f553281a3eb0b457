"""Counters, gauges and fixed-bucket histograms, plus the tape collector.

The registry is deliberately tiny — the shapes allocator papers actually
report: operation counts, per-op latency distributions
(``perf_counter_ns`` deltas bucketed into :data:`LATENCY_BUCKETS_NS`)
and object/gap size distributions (power-of-two buckets, matching the
paper's size classes).  Everything serializes to plain dicts for the run
manifest.

:class:`MetricsCollector` maintains the standard metric set from a run's
:class:`~repro.obs.tape.EventTape` alone, so any instrumented component
gets the same registry contents for free.  It reads columns, not event
objects: each :meth:`~MetricsCollector.fold` adds the rows recorded
since the last one, a whole column at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter as _Tally
from typing import TYPE_CHECKING, Dict, Iterable, Sequence, Tuple, Union

from .tape import ALLOC, CHARGE, MOVE, WINDOW

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tape import EventTape

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsCollector",
    "LATENCY_BUCKETS_NS",
    "power_of_two_buckets",
]

#: Default latency buckets: 0.25us .. 1ms, roughly 1-2-5 spaced.
LATENCY_BUCKETS_NS: Tuple[int, ...] = (
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000, 250_000, 500_000, 1_000_000,
)


def power_of_two_buckets(max_exponent: int) -> Tuple[int, ...]:
    """Upper bounds ``1, 2, 4, .., 2^max_exponent`` (size-class buckets)."""
    if max_exponent < 0:
        raise ValueError("max_exponent must be non-negative")
    return tuple(1 << e for e in range(max_exponent + 1))


class Counter:
    """A monotone event counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative — counters never go down)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def as_dict(self) -> dict:
        """JSON-ready summary."""
        return {"type": "counter", "value": self._value}


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0.0

    @property
    def value(self) -> float:
        """The last set value."""
        return self._value

    def set(self, value: float) -> None:
        """Record the current value."""
        self._value = value

    def as_dict(self) -> dict:
        """JSON-ready summary."""
        return {"type": "gauge", "value": self._value}


class Histogram:
    """A fixed-bucket histogram with an overflow bucket.

    ``bounds`` are inclusive upper edges in strictly increasing order: a
    recorded value lands in the first bucket whose bound is ``>=`` the
    value, or in the overflow bucket beyond the last bound.  Count, sum,
    min and max are tracked exactly regardless of bucketing.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "total",
                 "min_value", "max_value")

    def __init__(self, name: str, bounds: Sequence[Union[int, float]]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min_value: float | None = None
        self.max_value: float | None = None

    def record(self, value: Union[int, float]) -> None:
        """Add one observation."""
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    def record_many(self, values: Iterable[Union[int, float]]) -> None:
        """Add every observation in ``values``, bucketing each distinct
        value once.

        For integer observations the result equals calling
        :meth:`record` on each in turn (the float total stays exact
        while it is below ``2**53``).
        """
        tally = _Tally(values)
        if not tally:
            return
        bounds = self.bounds
        last = len(bounds)
        for value, times in tally.items():
            index = bisect_left(bounds, value)
            if index < last:
                self.counts[index] += times
            else:
                self.overflow += times
            self.total += value * times
        self.count += sum(tally.values())
        low, high = min(tally), max(tally)
        if self.min_value is None or low < self.min_value:
            self.min_value = low
        if self.max_value is None or high > self.max_value:
            self.max_value = high

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the upper bound of the bucket in
        which the ``q``-quantile observation falls (``max_value`` if it
        falls in the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            if running >= rank:
                return float(bound)
        return float(self.max_value if self.max_value is not None else 0.0)

    def as_dict(self) -> dict:
        """JSON-ready summary (bounds, per-bucket counts, exact stats)."""
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
        }


_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A name-keyed collection of metrics with get-or-create accessors.

    Accessors raise ``TypeError`` if the name is already registered as a
    different metric type — telemetry bugs should fail loudly, not
    silently split a series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, name: str, factory, kind: type) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(name, lambda: Counter(name), Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(name, lambda: Gauge(name), Gauge)  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Sequence[Union[int, float]] = LATENCY_BUCKETS_NS
    ) -> Histogram:
        """Get or create a histogram (``bounds`` only used on creation)."""
        return self._get_or_create(name, lambda: Histogram(name, bounds), Histogram)  # type: ignore[return-value]

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        """The metric registered under ``name``, if any."""
        return self._metrics.get(name)

    def as_dict(self) -> dict:
        """Every metric's summary, keyed by name (manifest-ready)."""
        return {name: self._metrics[name].as_dict() for name in self.names()}


class MetricsCollector:
    """Fills a registry with the standard metric set from an event tape.

    Per-kind event counters (``events.alloc`` etc.), size histograms for
    allocations and moves (power-of-two buckets up to 1 Mi-word), the
    allocation latency histogram (allocations with a zero
    ``latency_ns`` are not timed and stay out of it), and a gauge
    holding the budget ledger's last ``remaining``.  Every metric is
    registered at construction; :meth:`fold` adds the tape's new rows.
    """

    def __init__(self, registry: MetricsRegistry, tape: "EventTape") -> None:
        self.registry = registry
        self.tape = tape
        size_buckets = power_of_two_buckets(20)
        #: Per kind code, in :mod:`repro.obs.tape` order.
        self._counters = tuple(registry.counter(f"events.{kind}") for kind in (
            "alloc", "free", "move", "compaction_window", "stage_transition",
            "budget_charge"))
        self._alloc_sizes = registry.histogram("alloc.size_words", size_buckets)
        self._move_sizes = registry.histogram("move.size_words", size_buckets)
        self._alloc_latency = registry.histogram(
            "alloc.latency_ns", LATENCY_BUCKETS_NS
        )
        self._window_words = registry.histogram(
            "compaction_window.moved_words", size_buckets
        )
        self._budget_remaining = registry.gauge("budget.remaining_words")
        #: Rows of each kind folded in so far.
        self._folded = [0] * len(self._counters)

    def fold(self) -> None:
        """Add the rows the tape recorded since the last fold."""
        tape, folded = self.tape, self._folded
        counts = tape.counts()
        for counter, count, done in zip(self._counters, counts, folded):
            counter.inc(count - done)
        _, sizes, _, latencies = tape.columns(ALLOC, folded[ALLOC])
        self._alloc_sizes.record_many(sizes)
        self._alloc_latency.record_many(filter(None, latencies))
        self._move_sizes.record_many(tape.columns(MOVE, folded[MOVE])[1])
        self._window_words.record_many(tape.columns(WINDOW, folded[WINDOW])[2])
        if counts[CHARGE] > folded[CHARGE]:
            # A gauge keeps the newest value: read the last row only.
            remaining = tape.columns(CHARGE, counts[CHARGE] - 1)[-1]
            self._budget_remaining.set(remaining[0])
        self._folded = counts
