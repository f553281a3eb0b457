"""Differential tests: the bitmap kernel against the reference index.

Every query the bitmap kernel answers is also answerable by the
authoritative :class:`IntervalSet` / pure-Python reference path.  The
property tests here drive two heaps — one with the kernel, one without
— through identical random mutation sequences and require every answer
to agree exactly with the reference heap's: interval and gap arrays
against ``IntervalSet`` iteration and ``gaps``, range popcounts against
``IntervalSet.overlap_words``, chunk sums against
``ChunkPartition.occupancies``, the cheapest-window candidate search,
relocation targets, and the address-sorted object index.  Exact
agreement (not approximate) is the contract that makes the two backends
digest-identical.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

import repro.heap.kernel as kernel_module  # noqa: E402
from repro.heap.chunks import ChunkPartition  # noqa: E402
from repro.heap.heap import SimHeap  # noqa: E402
from repro.heap.kernel import (  # noqa: E402
    BitmapKernel,
    KERNEL_ENV_VAR,
    make_kernel,
    resolve_kernel,
)


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------


class TestResolution:
    def test_default_is_bitmap_with_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel(None) == "bitmap"
        assert isinstance(make_kernel(None), BitmapKernel)

    def test_env_var_selects_bitmap(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "bitmap")
        assert resolve_kernel(None) == "bitmap"
        assert isinstance(make_kernel(None), BitmapKernel)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "bitmap")
        assert resolve_kernel("reference") == "reference"
        assert make_kernel("reference") is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernel("simd")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "fast")
        with pytest.raises(ValueError):
            resolve_kernel(None)


# ---------------------------------------------------------------------------
# Random mutation sequences, applied to both backends in lockstep
# ---------------------------------------------------------------------------

#: One op: (kind, a, b) — interpreted against current heap state, so any
#: random triple is valid and shrinking stays effective.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["place", "free", "move"]),
        st.integers(min_value=0, max_value=600),
        st.integers(min_value=1, max_value=48),
    ),
    min_size=0,
    max_size=60,
)


def _apply(heaps: tuple[SimHeap, ...], kind: str, a: int, b: int) -> None:
    """Apply one op to every heap identically (ops are state-dependent
    but the states are identical, so the interpretations agree)."""
    lead = heaps[0]
    if kind == "place":
        if all(h.is_free(a, b) for h in heaps):
            for h in heaps:
                h.place(a, b)
        return
    live = sorted(obj.object_id for obj in lead.objects.live_objects())
    if not live:
        return
    victim = live[a % len(live)]
    if kind == "free":
        for h in heaps:
            h.free(victim)
        return
    size = lead.objects.require_live(victim).size
    if all(h.is_free(a, size) for h in heaps):
        for h in heaps:
            h.move(victim, a)


#: Query points: inside the heap, and past ``span_end`` (ops reach 648).
_points = st.lists(st.integers(min_value=0, max_value=800), min_size=1,
                   max_size=12)


@settings(max_examples=120, deadline=None)
@given(ops=_ops, points=_points)
@example(ops=[], points=[0, 5])
def test_bitmap_matches_interval_set(ops, points):
    """Interval and gap arrays equal the IntervalSet's, at every limit."""
    heap = SimHeap(kernel=make_kernel("bitmap"))
    mirror = SimHeap()
    for kind, a, b in ops:
        _apply((heap, mirror), kind, a, b)
    heap.check_invariants()
    kernel = heap.kernel
    span = mirror.occupied.span_end
    for limit in {0, span, span + 64, *points}:
        starts, ends = kernel.interval_arrays(limit)
        expected = [(s, min(e, limit)) for s, e in mirror.occupied
                    if s < limit]
        assert list(zip(starts.tolist(), ends.tolist())) == expected
        starts, ends = kernel.gap_arrays(limit)
        assert list(zip(starts.tolist(), ends.tolist())) == \
            list(mirror.occupied.gaps(0, limit))


@settings(max_examples=120, deadline=None)
@given(ops=_ops, points=_points)
@example(ops=[], points=[0, 5])
def test_range_popcounts_match_overlap_words(ops, points):
    """Range popcounts equal ``IntervalSet.overlap_words``, past span too."""
    heap = SimHeap(kernel=make_kernel("bitmap"))
    mirror = SimHeap()
    for kind, a, b in ops:
        _apply((heap, mirror), kind, a, b)
    kernel = heap.kernel
    span = mirror.occupied.span_end
    edges = sorted({0, span, span + 1, *points})
    ranges = [(lo, hi) for lo in edges for hi in edges if lo < hi]
    expected = [mirror.occupied.overlap_words(lo, hi) for lo, hi in ranges]
    los = np.array([lo for lo, _ in ranges], dtype=np.int64)
    his = np.array([hi for _, hi in ranges], dtype=np.int64)
    assert kernel.range_popcounts(los, his).tolist() == expected
    assert [kernel.range_popcount(lo, hi) for lo, hi in ranges] == expected
    assert kernel.range_popcount(span + 1, span) == 0


@settings(max_examples=80, deadline=None)
@given(ops=_ops, chunk_exp=st.integers(min_value=0, max_value=8))
@example(ops=[], chunk_exp=3)
def test_chunk_occupancies_match(ops, chunk_exp):
    """Chunk sums equal ``ChunkPartition.occupancies`` on the reference."""
    heap = SimHeap(kernel=make_kernel("bitmap"))
    mirror = SimHeap()
    for kind, a, b in ops:
        _apply((heap, mirror), kind, a, b)
    partition = ChunkPartition(chunk_exp)
    expected = partition.occupancies(mirror)
    assert partition.occupancies(heap) == expected
    size = partition.chunk_size
    span = mirror.occupied.span_end
    for limit in (span, span + 3 * size):
        sums = heap.kernel.chunk_sums(size, limit)
        assert len(sums) == -(-limit // size)
        assert {k: v for k, v in enumerate(sums.tolist()) if v} == expected


def test_mutations_grow_no_kernel_state():
    """A heap that never asks a bulk query keeps no kernel state growing.

    10k places and nearly as many frees through a 32-object FIFO; any
    per-mutation record kept by the kernel module shows up as traced
    allocation growth attributed to ``repro/heap/kernel.py``.
    """
    heap = SimHeap(kernel=make_kernel("bitmap"))
    only_kernel = [tracemalloc.Filter(True, kernel_module.__file__)]
    live: list[int] = []
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_kernel)
        for step in range(10_000):
            if len(live) == 32:
                heap.free(live.pop(0))
            live.append(heap.place((step % 64) * 16, 8).object_id)
        after = tracemalloc.take_snapshot().filter_traces(only_kernel)
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff
                 for stat in after.compare_to(before, "filename"))
    assert growth <= 0
    heap.check_invariants()


def test_kernel_attaches_to_one_heap():
    kernel = make_kernel("bitmap")
    SimHeap(kernel=kernel)
    with pytest.raises(ValueError):
        SimHeap(kernel=kernel)


@settings(max_examples=80, deadline=None)
@given(ops=_ops, size=st.integers(min_value=1, max_value=96))
def test_placement_answers_match(ops, size):
    """Cheapest-window and relocation answers agree across backends."""
    from repro.analysis.defrag import cheapest_interior_window

    from repro.mm.base import find_relocation_target

    heap = SimHeap(kernel=make_kernel("bitmap"))
    mirror = SimHeap()
    for kind, a, b in ops:
        _apply((heap, mirror), kind, a, b)
    assert cheapest_interior_window(heap, size) == \
        cheapest_interior_window(mirror, size)
    span = heap.occupied.span_end
    for avoid_start, avoid_end in [(0, size), (span // 3, span // 2 + 1),
                                   (0, max(1, span))]:
        if avoid_end <= avoid_start:
            continue
        assert find_relocation_target(heap, size, avoid_start, avoid_end) \
            == find_relocation_target(mirror, size, avoid_start, avoid_end)


@settings(max_examples=80, deadline=None)
@given(ops=_ops, lo=st.integers(min_value=0, max_value=500),
       width=st.integers(min_value=1, max_value=200))
def test_objects_in_range_matches_scan(ops, lo, width):
    heap = SimHeap(kernel=make_kernel("bitmap"))
    mirror = SimHeap()
    for kind, a, b in ops:
        _apply((heap, mirror), kind, a, b)
    fast = [(o.object_id, o.address) for o in
            heap.objects_in_range(lo, lo + width)]
    slow = [(o.object_id, o.address) for o in
            mirror.objects_in_range(lo, lo + width)]
    assert fast == slow
    naive = sorted(
        (o.object_id, o.address)
        for o in mirror.objects.live_objects()
        if o.overlaps_range(lo, lo + width)
    )
    assert sorted(fast) == naive
