"""Tests for heap metrics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.heap.heap import SimHeap
from repro.heap.metrics import (
    chunk_density_histogram,
    external_fragmentation,
    largest_free_gap,
    snapshot,
    utilization,
)


def fragmented_heap() -> SimHeap:
    """[0,2) live, [2,6) free, [6,8) live, [8,16) free, [16,18) live."""
    heap = SimHeap()
    keep1 = heap.place(0, 2)
    hole1 = heap.place(2, 4)
    keep2 = heap.place(6, 2)
    hole2 = heap.place(8, 8)
    heap.place(16, 2)
    heap.free(hole1.object_id)
    heap.free(hole2.object_id)
    _ = (keep1, keep2)
    return heap


class TestSnapshot:
    def test_empty_heap(self):
        metrics = snapshot(SimHeap())
        assert metrics.high_water == 0
        assert metrics.utilization == 1.0
        assert metrics.external_fragmentation == 0.0
        assert metrics.free_words == 0

    def test_fragmented_heap(self):
        metrics = snapshot(fragmented_heap())
        assert metrics.high_water == 18
        assert metrics.live_words == 6
        assert metrics.free_words == 12
        assert metrics.free_gaps == 2
        assert metrics.largest_gap == 8
        assert metrics.utilization == pytest.approx(6 / 18)
        assert metrics.external_fragmentation == pytest.approx(1 - 8 / 12)

    def test_waste_factor(self):
        metrics = snapshot(fragmented_heap())
        assert metrics.waste_factor(6) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            metrics.waste_factor(0)

    def test_convenience_wrappers(self):
        heap = fragmented_heap()
        assert utilization(heap) == pytest.approx(6 / 18)
        assert largest_free_gap(heap) == 8
        assert external_fragmentation(heap) == pytest.approx(1 - 8 / 12)

    def test_counts_match_heap(self):
        heap = fragmented_heap()
        metrics = snapshot(heap)
        assert metrics.total_allocated == heap.total_allocated
        assert metrics.total_moved == 0
        assert metrics.live_objects == 3


def walked(heap: SimHeap) -> dict:
    """The gap fields by definition: a walk of every free gap below HS."""
    gaps = list(heap.free_gaps())
    free_words = sum(end - start for start, end in gaps)
    largest = max((end - start for start, end in gaps), default=0)
    return {
        "free_words": free_words,
        "free_gaps": len(gaps),
        "largest_gap": largest,
        "external_fragmentation":
            1.0 - (largest / free_words) if free_words else 0.0,
    }


#: One op: (kind, a, b), interpreted against the current heap so any
#: triple is valid: place [a, a+b) if free; free or move (to a) the
#: live object at index a.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["place", "free", "move"]),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=40),
    ),
    max_size=40,
)


def _apply(heap: SimHeap, kind: str, a: int, b: int) -> None:
    if kind == "place":
        if heap.is_free(a, b):
            heap.place(a, b)
        return
    live = sorted(obj.object_id for obj in heap.objects.live_objects())
    if not live:
        return
    victim = live[a % len(live)]
    if kind == "free":
        heap.free(victim)
    elif heap.is_free(a, heap.objects.require_live(victim).size):
        heap.move(victim, a)


class TestSnapshotDifferential:
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops)
    @example(ops=[])  # empty heap: no gaps at all
    # Tail gap: the last object freed, HS above the covered span.
    @example(ops=[("place", 0, 4), ("place", 4, 4), ("free", 1, 1)])
    # A lone leading gap [0, 4) and no tail.
    @example(ops=[("place", 0, 4), ("place", 4, 2), ("free", 0, 1)])
    def test_o1_snapshot_equals_gap_walk(self, ops):
        heap = SimHeap()
        self.assert_walk_agrees(heap)
        for kind, a, b in ops:
            _apply(heap, kind, a, b)
            self.assert_walk_agrees(heap)

    @staticmethod
    def assert_walk_agrees(heap: SimHeap) -> None:
        metrics = snapshot(heap)
        expected = walked(heap)
        assert {field: getattr(metrics, field) for field in expected} == \
            expected


class TestDensityHistogram:
    def test_buckets(self):
        heap = fragmented_heap()
        # Chunks of 8 words: chunk0 has 4 live (density .5), chunk1 has 0,
        # chunk2 has 2 (density .25).
        histogram = chunk_density_histogram(heap, 3, buckets=4)
        assert sum(histogram) == 2  # only used chunks counted
        assert histogram[2] == 1  # density 0.5
        assert histogram[1] == 1  # density 0.25

    def test_full_chunk_lands_in_last_bucket(self):
        heap = SimHeap()
        heap.place(0, 8)
        histogram = chunk_density_histogram(heap, 3, buckets=4)
        assert histogram == [0, 0, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_density_histogram(SimHeap(), 3, buckets=0)
