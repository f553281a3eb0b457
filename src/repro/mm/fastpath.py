"""Vectorized manager hot paths over the occupancy kernel.

Every function here is a drop-in replacement for a pure-Python
computation somewhere in the manager/analysis layer, used only when the
heap carries a :class:`~repro.heap.kernel.BitmapKernel`.  Each one
reproduces its reference's answer *exactly* — same value, same
tie-breaks — so the event stream (and therefore the canonical digest)
is identical under either backend.  The proofs are structural and
short:

* :func:`cheapest_interior_window` evaluates the **same candidate set**
  the reference derives (window starts at 0, the clipped limit, every
  interval end at or below the limit, and every ``interval.start -
  size``), costs them all with one vectorized range-popcount batch, and
  takes the minimum over ``(cost, candidate)`` — the reference's exact
  tie-break — with candidates pre-sorted so ``argmin`` lands on the
  lowest address;
* :func:`relocation_target` applies the reference's gap-clipping rule
  to the full gap arrays at once and picks the first (lowest) fitting
  gap, which is the reference's first-return;
* :func:`sparsest_chunk` takes the first minimum over the chunk sums,
  which is the lowest index the reference's strict-``<`` scan keeps.

Import stays lazy-safe: this module is only imported once a bitmap
kernel exists, which implies numpy is importable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..heap.heap import SimHeap
    from ..heap.kernel import BitmapKernel

__all__ = [
    "cheapest_interior_window",
    "relocation_target",
    "sparsest_chunk",
]


def _kernel(heap: "SimHeap") -> "BitmapKernel":
    kernel = heap.kernel
    assert kernel is not None, "fastpath called without a bitmap kernel"
    return kernel  # type: ignore[return-value]


def cheapest_interior_window(
    heap: "SimHeap", size: int
) -> tuple[int, int] | None:
    """``(start, cost)`` of the cheapest interior ``size``-word window.

    Vectorized counterpart of
    :func:`repro.analysis.defrag.cheapest_interior_window` at
    ``alignment=1`` (the only alignment the managers use; other
    alignments stay on the reference).  Candidates and tie-breaks match
    the reference exactly — see the module docstring.
    """
    span_end = heap.occupied.span_end
    limit = span_end - size
    if limit < 0:
        return None
    kernel = _kernel(heap)
    starts, ends = kernel.interval_arrays(span_end)
    fixed = _np.array([0, limit], dtype=_np.int64)
    shifted = starts[starts >= size] - size  # always <= span_end - size
    pieces = [fixed, ends[ends <= limit], shifted]
    candidates = _np.concatenate(pieces)
    candidates = candidates[(candidates >= 0) & (candidates <= limit)]
    if len(candidates) == 0:
        return None
    # Sorted dedup (cheaper than np.unique's hash path on these sizes);
    # ascending order is also what makes argmin's first-min tie-break
    # equal the reference's lowest-address preference.
    candidates.sort()
    if len(candidates) > 1:
        keep = _np.empty(len(candidates), dtype=bool)
        keep[0] = True
        _np.not_equal(candidates[1:], candidates[:-1], out=keep[1:])
        candidates = candidates[keep]
    costs = kernel.range_popcounts(candidates, candidates + size)
    best = int(_np.argmin(costs))  # first minimum == lowest start
    return int(candidates[best]), int(costs[best])


def relocation_target(
    heap: "SimHeap", size: int, avoid_start: int, avoid_end: int
) -> int:
    """Lowest free address for ``size`` words outside the avoid region.

    Vectorized counterpart of
    :func:`repro.mm.base.find_relocation_target`: every gap
    intersecting ``[avoid_start, avoid_end)`` contributes only its part
    above ``avoid_end``; the first (lowest) gap whose usable part fits
    wins, else the tail past both the span and the region.
    """
    span_end = heap.occupied.span_end
    gap_starts, gap_ends = _kernel(heap).gap_arrays(span_end)
    if len(gap_starts):
        clipped = _np.where(
            (gap_starts < avoid_end) & (gap_ends > avoid_start),
            _np.maximum(gap_starts, avoid_end),
            gap_starts,
        )
        fits = gap_ends - clipped >= size
        if fits.any():
            return int(clipped[int(_np.argmax(fits))])
    return max(span_end, avoid_end)


def sparsest_chunk(
    heap: "SimHeap", chunk_size: int, max_occupancy: float
) -> tuple[int, int] | None:
    """The least-occupied aligned chunk at or below ``max_occupancy``.

    Vectorized counterpart of the evacuation scan in
    :class:`~repro.mm.theorem2_manager.Theorem2Manager`: among chunks
    with at least one live word and occupancy ``<= max_occupancy``,
    return ``(index, occupancy)`` of the lowest-occupancy one, ties to
    the lowest index — exactly what the reference's strict-``<`` min
    over the ascending occupancy dict selects.  (Occupancies are far
    below 2**53, so the int-vs-float comparison is exact on both
    paths.)  Returns None when no chunk qualifies.
    """
    sums = _kernel(heap).chunk_sums(chunk_size, heap.occupied.span_end)
    eligible = (sums > 0) & (sums <= max_occupancy)
    if not eligible.any():
        return None
    candidates = _np.where(eligible, sums, _np.iinfo(_np.int64).max)
    index = int(_np.argmin(candidates))  # first minimum == lowest index
    return index, int(sums[index])
