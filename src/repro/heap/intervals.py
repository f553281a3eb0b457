"""A sorted set of disjoint half-open integer intervals.

This is the workhorse index of the simulator: :class:`IntervalSet`
tracks which words of the (conceptually unbounded) address space are
occupied, supports overlap queries, and enumerates the free gaps that
placement policies search.  Intervals are half-open ``[start, end)`` —
the natural fit for word ranges.

The implementation keeps two parallel sorted lists (starts, ends) and
uses :mod:`bisect`; every public operation preserves the invariants

* intervals are pairwise disjoint and non-adjacent (adjacent intervals
  are coalesced on insert), and
* both lists are strictly increasing.

**The gap index.**  Alongside the interval arrays the set maintains a
:class:`~repro.heap.gap_index.GapIndex` over its free gaps — the
maximal uncovered runs inside ``[0, span_end)``.  Every mutation
changes at most two gaps (an ``add`` consumes or splits the gap it
lands in; a ``remove`` merges up to two neighbours into one), so the
index updates in O(log k) per mutation, and the placement searches —
:meth:`find_first_gap`, :meth:`find_best_gap`, :meth:`find_worst_gap`
— answer in O(log k) instead of the O(k) linear scan the allocator hot
path used to pay under adversarial fragmentation.  The linear scans
survive as the ``_naive_*`` reference implementations: they serve the
rare queries the index cannot (a search limit below the covered span,
which clips gaps) and anchor the differential property tests that
guarantee the index returns *byte-identical* answers.

:attr:`IntervalSet.max_gap_hint` — historically an O(1)-maintained
upper bound on the largest internal gap — is now **exact**, read
straight off the index, so oversized requests still bail out in O(1)
but with no slack.  :attr:`IntervalSet.total` is likewise O(1),
maintained as a covered-word count across mutations.

Search traffic is micro-profiled through
:class:`~repro.heap.gap_index.SearchStats` (:attr:`search_stats`):
index hits vs linear fallbacks and gaps examined, cheap enough to stay
always-on and surfaced by the telemetry layer as ``placement.*``
metrics.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterable, Iterator

from .gap_index import GapIndex, SearchStats

__all__ = ["IntervalSet"]


class IntervalSet:
    """Mutable set of disjoint half-open intervals of non-negative ints."""

    __slots__ = ("_starts", "_ends", "_gaps", "_covered", "_search_stats")

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()) -> None:
        # Parallel sorted coordinate tables.  Typed ``array('q')`` rather
        # than lists: same bisect/insert/del algorithmics, but the raw
        # int64 storage means the occupancy kernel can lift the whole
        # table into numpy through the buffer protocol (one C memcpy)
        # instead of boxing every element.
        self._starts: array = array("q")
        self._ends: array = array("q")
        #: Incremental index over the free gaps of [0, span_end).
        self._gaps = GapIndex()
        #: Covered words, maintained across mutations (O(1) ``total``).
        self._covered = 0
        self._search_stats = SearchStats()
        for start, end in intervals:
            self.add(start, end)

    # Queries --------------------------------------------------------------

    def __len__(self) -> int:
        """Number of maximal intervals (not total words)."""
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    def __contains__(self, point: int) -> bool:
        index = bisect.bisect_right(self._starts, point) - 1
        return index >= 0 and point < self._ends[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:
        spans = ", ".join(f"[{s}, {e})" for s, e in self)
        return f"IntervalSet({spans})"

    @property
    def total(self) -> int:
        """Total number of words covered (O(1); maintained incrementally)."""
        return self._covered

    @property
    def span_end(self) -> int:
        """One past the highest covered word (0 when empty)."""
        return self._ends[-1] if self._ends else 0

    @property
    def max_gap_hint(self) -> int:
        """The **exact** largest internal gap size, in O(1).

        Read straight off the gap index (the name survives from when
        this was only an upper bound).  ``size > max_gap_hint``
        guarantees no internal gap holds ``size`` words, and a gap of
        exactly this size exists whenever the value is non-zero.
        """
        return self._gaps.max_size

    @property
    def gap_count(self) -> int:
        """Number of free gaps inside ``[0, span_end)`` (O(1))."""
        return len(self._gaps)

    @property
    def search_stats(self) -> SearchStats:
        """Cumulative placement-search counters for this set."""
        return self._search_stats

    def interval_lists(self) -> tuple[array, array]:
        """Sorted ``(starts, ends)`` coordinate tables, as ``array('q')``.

        Exposed for bulk consumers (the occupancy kernel) that want to
        lift the whole interval table into numpy through the buffer
        protocol instead of iterating interval by interval.  The typed
        arrays are snapshot *copies* (one C memcpy each — still far
        cheaper than boxing every element), so callers can hold them, or
        numpy views of them, across mutations: a view of the live table
        would also block it from resizing.
        """
        return self._starts[:], self._ends[:]

    def overlaps(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` intersects any interval."""
        self._check_range(start, end)
        if start == end:
            return False
        index = bisect.bisect_right(self._starts, start) - 1
        if index >= 0 and start < self._ends[index]:
            return True
        index += 1
        return index < len(self._starts) and self._starts[index] < end

    def covers(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` lies entirely inside one interval."""
        self._check_range(start, end)
        if start == end:
            return True
        index = bisect.bisect_right(self._starts, start) - 1
        return index >= 0 and end <= self._ends[index]

    def overlap_words(self, start: int, end: int) -> int:
        """How many words of ``[start, end)`` are covered."""
        self._check_range(start, end)
        total = 0
        index = max(0, bisect.bisect_right(self._starts, start) - 1)
        while index < len(self._starts) and self._starts[index] < end:
            lo = max(start, self._starts[index])
            hi = min(end, self._ends[index])
            if hi > lo:
                total += hi - lo
            index += 1
        return total

    def gaps(self, start: int, end: int) -> Iterator[tuple[int, int]]:
        """Yield the uncovered sub-ranges of ``[start, end)`` in order."""
        self._check_range(start, end)
        cursor = start
        index = max(0, bisect.bisect_right(self._starts, start) - 1)
        while index < len(self._starts) and self._starts[index] < end:
            s, e = self._starts[index], self._ends[index]
            if e > cursor:
                if s > cursor:
                    yield (cursor, min(s, end))
                cursor = max(cursor, min(e, end))
                if cursor >= end:
                    return
            index += 1
        if cursor < end:
            yield (cursor, end)

    def free_run_start(self, point: int) -> int:
        """Start of the maximal free run containing the free ``point``.

        Raises if ``point`` is covered.  Used by cursor caches to learn
        how far down a de-allocation's coalesced gap reaches (the
        lowest address where new fits may have appeared).
        """
        if point < 0:
            raise ValueError(f"bad point {point}")
        index = bisect.bisect_right(self._starts, point) - 1
        if index < 0:
            return 0
        end = self._ends[index]
        if point < end:
            raise ValueError(f"point {point} is covered")
        return end

    # Placement search ------------------------------------------------------

    def find_first_gap(
        self, size: int, *, alignment: int = 1, start: int = 0,
        end: int | None = None,
    ) -> int | None:
        """Lowest aligned address of an uncovered run of ``size`` words.

        Searches the gaps of ``[start, end)`` (``end=None`` means the
        covered span's end — the caller handles the unbounded tail).
        Backed by the gap index whenever the limit does not clip the
        covered span (the allocator hot path); a limit *below* the span
        falls back to the naive linear scan, counted in
        :attr:`search_stats`.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        span = self.span_end
        limit = span if end is None else end
        stats = self._search_stats
        stats.searches += 1
        if limit < span:
            stats.scan_fallbacks += 1
            return self._naive_find_first_gap(
                size, alignment=alignment, start=start, end=limit, stats=stats
            )
        stats.index_hits += 1
        found = self._indexed_first_fit(size, alignment, start, stats)
        if found is not None:
            return found
        if limit > span:
            # The region [span, limit) is uncovered: one tail gap.
            cursor = span if start <= span else start
            candidate = (
                cursor if alignment == 1 else cursor + (-cursor) % alignment
            )
            if candidate + size <= limit:
                stats.gaps_examined += 1
                return candidate
        return None

    def _indexed_first_fit(
        self, size: int, alignment: int, start: int, stats: SearchStats
    ) -> int | None:
        """Index-backed first-fit over the internal gaps at ``>= start``."""
        gaps = self._gaps
        if size > gaps.max_size:
            return None  # O(1): no internal gap can hold `size` words
        starts = self._starts
        if start > 0 and starts:
            # A gap straddling `start` is invisible to the index query
            # below (its start lies before the bound); test its clipped
            # remainder [start, gap_end) first — it is the lowest
            # possible placement.
            index = bisect.bisect_right(starts, start) - 1
            gap_end = 0
            if index < 0:
                if start < starts[0]:
                    gap_end = starts[0]
            elif start >= self._ends[index] and index + 1 < len(starts):
                gap_end = starts[index + 1]
            if gap_end:
                stats.gaps_examined += 1
                candidate = (
                    start if alignment == 1 else start + (-start) % alignment
                )
                if candidate + size <= gap_end:
                    return candidate
        return gaps.find_first(
            size, alignment=alignment, start=start, stats=stats
        )

    def find_best_gap(
        self, size: int, *, alignment: int = 1, end: int | None = None
    ) -> tuple[int | None, int]:
        """Best-fit search: ``(address_of_smallest_fitting_gap, largest_gap)``.

        Returns the aligned address inside the smallest gap of ``[0,
        end)`` that fits ``size`` — ties broken toward the lowest
        address — plus the exact largest gap size (``None`` for the
        address when nothing fits).  Index-backed in O(log k) when the
        limit equals the covered span; other limits fall back to the
        naive scan.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        span = self.span_end
        limit = span if end is None else end
        stats = self._search_stats
        stats.searches += 1
        if limit != span:
            stats.scan_fallbacks += 1
            return self._naive_find_best_gap(
                size, alignment=alignment, end=limit, stats=stats
            )
        stats.index_hits += 1
        gaps = self._gaps
        largest = gaps.max_size
        if size > largest:
            return None, largest
        return gaps.find_best(size, alignment=alignment, stats=stats), largest

    def find_worst_gap(
        self, size: int, *, alignment: int = 1, end: int | None = None
    ) -> int | None:
        """Worst-fit search: aligned address inside the *largest* gap of
        ``[0, end)`` that fits ``size`` (ties: lowest address), or
        ``None``.  Index-backed in O(log k) at the covered-span limit.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        span = self.span_end
        limit = span if end is None else end
        stats = self._search_stats
        stats.searches += 1
        if limit != span:
            stats.scan_fallbacks += 1
            return self._naive_find_worst_gap(
                size, alignment=alignment, end=limit, stats=stats
            )
        stats.index_hits += 1
        gaps = self._gaps
        if size > gaps.max_size:
            return None
        return gaps.find_worst(size, alignment=alignment, stats=stats)

    # Naive reference scans --------------------------------------------------
    #
    # The pre-index linear scans, kept verbatim: they serve limits the
    # index cannot (a limit clipping the covered span) and anchor the
    # differential tests asserting the index answers are byte-identical.

    def _naive_find_first_gap(
        self, size: int, *, alignment: int = 1, start: int = 0,
        end: int | None = None, stats: SearchStats | None = None,
    ) -> int | None:
        """Reference linear scan for :meth:`find_first_gap`."""
        if size <= 0:
            raise ValueError("size must be positive")
        limit = self.span_end if end is None else end
        starts, ends = self._starts, self._ends
        count = len(starts)
        index = max(0, bisect.bisect_right(starts, start) - 1)
        cursor = start
        examined = 0
        unaligned = alignment == 1
        found: int | None = None
        while cursor < limit:
            if index < count:
                gap_end = starts[index]
                if gap_end <= cursor:
                    interval_end = ends[index]
                    if interval_end > cursor:
                        cursor = interval_end
                    index += 1
                    continue
                if gap_end > limit:
                    gap_end = limit
            else:
                gap_end = limit
            examined += 1
            candidate = cursor if unaligned else cursor + ((-cursor) % alignment)
            if candidate + size <= gap_end:
                found = candidate
                break
            if index >= count:
                break
            cursor = ends[index]
            index += 1
        if stats is not None:
            stats.gaps_examined += examined
        return found

    def _naive_find_best_gap(
        self, size: int, *, alignment: int = 1, end: int | None = None,
        stats: SearchStats | None = None,
    ) -> tuple[int | None, int]:
        """Reference linear scan for :meth:`find_best_gap`."""
        if size <= 0:
            raise ValueError("size must be positive")
        limit = self.span_end if end is None else end
        starts, ends = self._starts, self._ends
        count = len(starts)
        best_address: int | None = None
        best_waste = -1
        largest = 0
        cursor = 0
        index = 0
        examined = 0
        unaligned = alignment == 1
        while cursor < limit:
            if index < count:
                gap_end = starts[index]
                if gap_end > limit:
                    gap_end = limit
            else:
                gap_end = limit
            gap_size = gap_end - cursor
            if gap_size > 0:
                examined += 1
                if gap_size > largest:
                    largest = gap_size
                candidate = cursor if unaligned else cursor + ((-cursor) % alignment)
                if candidate + size <= gap_end:
                    waste = gap_size - size
                    if best_waste < 0 or waste < best_waste:
                        best_address, best_waste = candidate, waste
                        # No early exit on a perfect fit: ``largest`` must
                        # cover *all* gaps to stay exact.
            if index >= count:
                break
            cursor = ends[index]
            index += 1
        if stats is not None:
            stats.gaps_examined += examined
        return best_address, largest

    def _naive_find_worst_gap(
        self, size: int, *, alignment: int = 1, end: int | None = None,
        stats: SearchStats | None = None,
    ) -> int | None:
        """Reference linear scan for :meth:`find_worst_gap`."""
        if size <= 0:
            raise ValueError("size must be positive")
        limit = self.span_end if end is None else end
        best_address: int | None = None
        best_size = -1
        examined = 0
        for gap_start, gap_end in self.gaps(0, limit):
            examined += 1
            candidate = (
                gap_start if alignment == 1
                else gap_start + (-gap_start) % alignment
            )
            if candidate + size <= gap_end and gap_end - gap_start > best_size:
                best_address, best_size = candidate, gap_end - gap_start
        if stats is not None:
            stats.gaps_examined += examined
        return best_address

    # Mutations ------------------------------------------------------------

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``; raises if it overlaps existing words."""
        self._check_range(start, end)
        if start == end:
            return
        if self.overlaps(start, end):
            raise ValueError(f"[{start}, {end}) overlaps existing intervals")
        starts, ends = self._starts, self._ends
        index = bisect.bisect_left(starts, start)
        gaps = self._gaps
        if index == len(starts):
            # Appending at or past the old span end: when strictly past,
            # the old tail [old_span, start) becomes a new internal gap;
            # nothing else changes.
            old_span = ends[-1] if ends else 0
            if start > old_span:
                gaps.add(old_span, start)
        else:
            # The insertion lands inside the gap (left_bound, right_bound)
            # between its neighbours (the leading gap when index == 0);
            # it splits into at most two smaller gaps.
            right_bound = starts[index]
            left_bound = ends[index - 1] if index else 0
            gaps.remove(left_bound, right_bound)
            if left_bound < start:
                gaps.add(left_bound, start)
            if end < right_bound:
                gaps.add(end, right_bound)
        # Coalesce with the neighbours when adjacent.
        merged_left = index > 0 and ends[index - 1] == start
        merged_right = index < len(starts) and starts[index] == end
        if merged_left and merged_right:
            ends[index - 1] = ends[index]
            del starts[index]
            del ends[index]
        elif merged_left:
            ends[index - 1] = end
        elif merged_right:
            starts[index] = start
        else:
            starts.insert(index, start)
            ends.insert(index, end)
        self._covered += end - start

    def remove(self, start: int, end: int) -> None:
        """Delete ``[start, end)``; raises unless it is fully covered."""
        self._check_range(start, end)
        if start == end:
            return
        if not self.covers(start, end):
            raise ValueError(f"[{start}, {end}) is not fully covered")
        starts, ends = self._starts, self._ends
        index = bisect.bisect_right(starts, start) - 1
        s, e = starts[index], ends[index]
        gaps = self._gaps
        last = index == len(starts) - 1
        if s == start and e == end:
            # Whole interval: its flanking gaps (and itself) merge into
            # one — unless it was the last interval, in which case the
            # span shrinks and the left gap joins the (unindexed) tail.
            left_bound = ends[index - 1] if index else 0
            if not last:
                gaps.remove(e, starts[index + 1])
                if left_bound < s:
                    gaps.remove(left_bound, s)
                gaps.add(left_bound, starts[index + 1])
            elif left_bound < s:
                gaps.remove(left_bound, s)
            del starts[index]
            del ends[index]
        elif s == start:
            # Prefix: the gap on the left (the leading gap when index
            # == 0) grows to absorb the freed words.
            left_bound = ends[index - 1] if index else 0
            if left_bound < s:
                gaps.remove(left_bound, s)
            gaps.add(left_bound, end)
            starts[index] = end
        elif e == end:
            # Suffix: the gap on the right grows — unless this is the
            # last interval, where the span shrinks instead.
            if not last:
                gaps.remove(e, starts[index + 1])
                gaps.add(start, starts[index + 1])
            ends[index] = start
        else:
            # Interior: the interval splits around one brand-new gap.
            gaps.add(start, end)
            ends[index] = start
            starts.insert(index + 1, end)
            ends.insert(index + 1, e)
        self._covered -= end - start

    def clear(self) -> None:
        """Remove every interval."""
        del self._starts[:]
        del self._ends[:]
        self._gaps.clear()
        self._covered = 0

    def copy(self) -> "IntervalSet":
        """An independent copy (search counters start fresh)."""
        clone = IntervalSet()
        clone._starts = self._starts[:]
        clone._ends = self._ends[:]
        clone._gaps = self._gaps.copy()
        clone._covered = self._covered
        return clone

    # Internal ---------------------------------------------------------------

    @staticmethod
    def _check_range(start: int, end: int) -> None:
        if start < 0 or end < start:
            raise ValueError(f"bad interval [{start}, {end})")

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property-based tests.

        Covers the interval arrays, the covered-word count, and full
        gap-index consistency (population, size order, class buckets,
        exact max-gap).
        """
        assert len(self._starts) == len(self._ends)
        previous_end = -1
        words = 0
        for s, e in zip(self._starts, self._ends):
            assert s < e, f"empty or inverted interval [{s}, {e})"
            assert s > previous_end, "intervals must be disjoint, sorted, non-adjacent"
            previous_end = e
            words += e - s
        assert self._covered == words, (
            f"covered-word count {self._covered} != recomputed {words}"
        )
        expected_gaps = [
            (s, e) for s, e in zip([0, *self._ends[:-1]], self._starts)
            if s < e
        ]
        self._gaps.check_consistency(expected_gaps)
        exact = max((e - s for s, e in expected_gaps), default=0)
        assert self._gaps.max_size == exact, (
            f"max gap {self._gaps.max_size} != exact {exact}"
        )
