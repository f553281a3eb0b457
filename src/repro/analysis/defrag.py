"""Defragmentation planning: the cheapest window to evacuate.

Given a heap and a desired contiguous run of ``size`` words, which
window of the address space costs the fewest moved words to clear?
:func:`cheapest_window` answers in ``O(k log k)`` over the ``k``
occupied intervals: the evacuation cost ``cost(start) = live words in
[start, start + size)`` is piecewise linear in ``start`` with slope
changes only at interval endpoints, so candidate minima lie at
``start = 0``, at each interval's end, and at each
``interval.start - size`` (the window positions where a live run enters
or leaves the window).

This is both an analysis utility (how entrenched is the fragmentation?)
and the planning core of
:class:`~repro.mm.compacting.CheapestWindowCompactor`, which evacuates
the optimal window instead of sliding blindly.
"""

from __future__ import annotations

from ..heap.heap import SimHeap

__all__ = ["cheapest_window", "cheapest_interior_window", "evacuation_cost"]


def evacuation_cost(heap: SimHeap, start: int, size: int) -> int:
    """Live words inside ``[start, start + size)``."""
    if start < 0 or size <= 0:
        raise ValueError("need start >= 0 and size > 0")
    return heap.occupied.overlap_words(start, start + size)


def cheapest_window(
    heap: SimHeap, size: int, *, alignment: int = 1
) -> tuple[int, int]:
    """``(start, cost)`` of the cheapest ``size``-word window.

    Windows are considered across ``[0, span_end)`` plus the tail (a
    window starting at the covered span's end always costs 0, so the
    returned cost is never worse than "just grow").  ``alignment``
    restricts the start address (candidates are rounded both ways and
    validated).
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if alignment < 1:
        raise ValueError("alignment must be at least 1")
    span_end = heap.occupied.span_end
    candidates = {0, max(0, span_end)}
    for seg_start, seg_end in heap.occupied:
        candidates.add(seg_end)
        if seg_start >= size:
            candidates.add(seg_start - size)
    aligned: set[int] = set()
    for raw in candidates:
        down = raw - (raw % alignment)
        up = raw + ((-raw) % alignment)
        if down >= 0:
            aligned.add(down)
        aligned.add(up)
    best_cost, best_start = min(
        (evacuation_cost(heap, candidate, size), candidate)
        for candidate in aligned
    )
    return best_start, best_cost


def cheapest_interior_window(
    heap: SimHeap, size: int, *, alignment: int = 1
) -> tuple[int, int] | None:
    """Like :func:`cheapest_window`, but only windows entirely below the
    covered span (``start + size <= span_end``) — the windows whose
    evacuation *saves heap growth* rather than just using the tail.
    Returns ``None`` when the span is shorter than ``size``.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if alignment < 1:
        raise ValueError("alignment must be at least 1")
    if heap.kernel is not None and alignment == 1:
        from ..mm.fastpath import cheapest_interior_window as fast_window

        return fast_window(heap, size)
    span_end = heap.occupied.span_end
    limit = span_end - size
    if limit < 0:
        return None
    candidates = {0, limit - (limit % alignment)}
    for seg_start, seg_end in heap.occupied:
        if seg_end <= limit:
            candidates.add(seg_end)
        if size <= seg_start <= span_end:
            candidates.add(seg_start - size)
    aligned: set[int] = set()
    for raw in candidates:
        down = raw - (raw % alignment)
        up = raw + ((-raw) % alignment)
        if 0 <= down <= limit:
            aligned.add(down)
        if up <= limit:
            aligned.add(up)
    if not aligned:
        return None
    best_cost, best_start = min(
        (evacuation_cost(heap, candidate, size), candidate)
        for candidate in aligned
    )
    return best_start, best_cost
