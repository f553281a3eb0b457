"""Fragmentation and utilization metrics over a simulated heap.

The paper's single figure of merit is the waste factor ``HS / M``, but
the experiment harness also reports standard fragmentation metrics so
the simulated managers can be compared the way allocator papers compare
them.  All metrics are pure functions of a :class:`~repro.heap.heap.SimHeap`
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chunks import ChunkPartition
from .heap import SimHeap

__all__ = [
    "HeapMetrics",
    "snapshot",
    "external_fragmentation",
    "largest_free_gap",
    "utilization",
    "chunk_density_histogram",
]


@dataclass(frozen=True)
class HeapMetrics:
    """A point-in-time metric bundle."""

    high_water: int
    live_words: int
    live_objects: int
    free_words: int
    free_gaps: int
    largest_gap: int
    utilization: float
    external_fragmentation: float
    total_allocated: int
    total_moved: int

    def waste_factor(self, live_space_bound: int) -> float:
        """``HS / M`` — the paper's figure of merit."""
        if live_space_bound <= 0:
            raise ValueError("live_space_bound must be positive")
        return self.high_water / live_space_bound


def snapshot(heap: SimHeap) -> HeapMetrics:
    """Capture every metric at once, in O(1).

    The free gaps below the high-water mark are the interval set's
    indexed gaps inside ``[0, span_end)`` plus the tail
    ``[span_end, high_water)`` when it is not empty, so their count,
    largest size and total come from the gap index and the covered-word
    count without walking a gap.
    """
    occupied = heap.occupied
    hw = heap.high_water
    tail = hw - occupied.span_end
    free_words = hw - occupied.total
    largest = max(occupied.max_gap_hint, tail)
    return HeapMetrics(
        high_water=hw,
        live_words=heap.live_words,
        live_objects=heap.objects.live_count,
        free_words=free_words,
        free_gaps=occupied.gap_count + (tail > 0),
        largest_gap=largest,
        utilization=(heap.live_words / hw) if hw else 1.0,
        external_fragmentation=(
            1.0 - (largest / free_words) if free_words else 0.0
        ),
        total_allocated=heap.total_allocated,
        total_moved=heap.total_moved,
    )


def utilization(heap: SimHeap) -> float:
    """Live words over the high-water mark (1.0 for a perfectly packed heap)."""
    return snapshot(heap).utilization


def external_fragmentation(heap: SimHeap) -> float:
    """``1 - largest_free_gap / total_free`` within the high-water span.

    0.0 means all free space is one gap (no external fragmentation);
    values near 1.0 mean the free space is shattered into small holes —
    exactly the state the adversarial programs aim for.
    """
    return snapshot(heap).external_fragmentation


def largest_free_gap(heap: SimHeap) -> int:
    """The biggest allocation that fits below the high-water mark."""
    return snapshot(heap).largest_gap


def chunk_density_histogram(
    heap: SimHeap, chunk_exponent: int, buckets: int = 10
) -> list[int]:
    """Histogram of per-chunk live densities under ``D(chunk_exponent)``.

    Bucket ``b`` counts chunks with density in ``[b/buckets,
    (b+1)/buckets)`` (the last bucket is closed above).  Only chunks
    below the high-water mark that contain at least one live word are
    counted — matching the paper's notion of "used" chunks.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    partition = ChunkPartition(chunk_exponent)
    histogram = [0] * buckets
    for chunk in partition.used_chunks(heap):
        density = partition.density(heap, chunk)
        bucket = min(buckets - 1, int(density * buckets))
        histogram[bucket] += 1
    return histogram
