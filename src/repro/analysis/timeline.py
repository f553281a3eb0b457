"""Time-series instrumentation: watch waste evolve during a run.

:class:`InstrumentedManager` wraps any manager and samples heap metrics
every ``every`` events (places/frees), producing a
:class:`Timeline` — the "waste over time" view allocator papers plot.
Because it is a plain manager wrapper, it composes with every program,
driver feature and budget model in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..heap.object_model import HeapObject
from ..mm.base import ManagerContext, MemoryManager

__all__ = ["TimelineSample", "Timeline", "InstrumentedManager"]


@dataclass(frozen=True)
class TimelineSample:
    """One sampled instant."""

    event_index: int
    high_water: int
    live_words: int
    total_moved: int

    def waste_factor(self, live_bound: int) -> float:
        """``HS / M`` at this instant."""
        return self.high_water / live_bound


class Timeline:
    """An append-only series of samples with convenience accessors."""

    def __init__(self) -> None:
        self.samples: list[TimelineSample] = []

    @classmethod
    def from_samples(cls, samples) -> "Timeline":
        """Adapt :class:`repro.obs.sampler.SamplePoint` series (or any
        objects with ``event_index``/``high_water``/``live_words`` and an
        optional move count) into a plottable timeline."""
        timeline = cls()
        for point in samples:
            timeline.append(TimelineSample(
                event_index=point.event_index,
                high_water=point.high_water,
                live_words=point.live_words,
                total_moved=getattr(point, "total_moved", 0),
            ))
        return timeline

    def __len__(self) -> int:
        return len(self.samples)

    def append(self, sample: TimelineSample) -> None:
        """Record one sample."""
        self.samples.append(sample)

    def series(self, live_bound: int) -> tuple[list[int], list[float]]:
        """(event indices, waste factors) ready for plotting."""
        xs = [sample.event_index for sample in self.samples]
        ys = [sample.waste_factor(live_bound) for sample in self.samples]
        return xs, ys

    def peak(self) -> TimelineSample:
        """The sample with the highest high-water mark."""
        if not self.samples:
            raise ValueError("empty timeline")
        return max(self.samples, key=lambda sample: sample.high_water)


class InstrumentedManager(MemoryManager):
    """Delegating wrapper that samples metrics as the run progresses."""

    def __init__(self, inner: MemoryManager, *, every: int = 64) -> None:
        super().__init__()
        if every < 1:
            raise ValueError("every must be at least 1")
        self.inner = inner
        self.every = every
        self.timeline = Timeline()
        self._events = 0
        self.name = f"{inner.name}+timeline"

    # Delegation ------------------------------------------------------------

    def attach(self, ctx: ManagerContext) -> None:
        super().attach(ctx)
        self.inner.attach(ctx)

    def prepare(self, size: int) -> None:
        self.inner.prepare(size)

    def place(self, size: int) -> int:
        return self.inner.place(size)

    def on_place(self, obj: HeapObject) -> None:
        self.inner.on_place(obj)
        self._tick()

    def on_free(self, obj: HeapObject) -> None:
        self.inner.on_free(obj)
        self._tick()

    # Sampling ----------------------------------------------------------------

    def _tick(self) -> None:
        self._events += 1
        if self._events % self.every == 0:
            self.sample()

    def sample(self) -> TimelineSample:
        """Force a sample now (also called automatically)."""
        heap = self.heap
        sample = TimelineSample(
            event_index=self._events,
            high_water=heap.high_water,
            live_words=heap.live_words,
            total_moved=heap.total_moved,
        )
        self.timeline.append(sample)
        return sample
