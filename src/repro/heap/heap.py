"""The word-addressed simulated heap.

:class:`SimHeap` models the paper's idealized memory: an unbounded
word-addressed space in which a memory manager places, frees and moves
objects.  The quantity the paper bounds — ``HS(A, P)``, "the smallest
consecutive space the memory manager may use to satisfy all allocation
requests" — is tracked as :attr:`SimHeap.high_water`: one past the
highest word any object has ever occupied (all placements start from
address 0, so the prefix ``[0, high_water)`` is the heap).

The heap enforces physical soundness only (no overlap, only live objects
freed/moved).  Policy constraints — the compaction budget, the live-space
cap ``M`` — belong to :mod:`repro.mm.budget` and the driver.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterator

from .errors import OverlapError, PlacementError
from .intervals import IntervalSet
from .object_model import HeapObject, ObjectTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import HeapKernel

__all__ = ["SimHeap"]


class SimHeap:
    """An unbounded word-addressed heap with an occupancy index.

    ``kernel`` optionally attaches vectorized bulk occupancy queries
    (see :mod:`repro.heap.kernel`).  The kernel reads this heap's
    :class:`IntervalSet` directly, so mutations do no work for it and
    the interval set stays the only occupancy state: the kernel never
    changes an answer, only how fast bulk answers arrive.
    """

    def __init__(self, kernel: "HeapKernel | None" = None) -> None:
        self._occupied = IntervalSet()
        self._table = ObjectTable()
        self._kernel = kernel
        if kernel is not None:
            kernel.attach(self._occupied)
        # Address-sorted live-object index: lets :meth:`objects_in_range`
        # answer victim scans in O(hits + log live) instead of O(live).
        # Built lazily on the first query, so managers that never
        # enumerate victims (the non-compacting family) never pay the
        # per-mutation upkeep.
        self._by_address: dict[int, HeapObject] = {}
        self._address_order: list[int] = []
        self._address_index_ready = False
        self._seq = 0
        self._high_water = 0
        self._total_allocated = 0
        self._total_freed = 0
        self._total_moved = 0

    # Introspection ----------------------------------------------------------

    @property
    def objects(self) -> ObjectTable:
        """The object table (ids, live set, per-object state)."""
        return self._table

    @property
    def occupied(self) -> IntervalSet:
        """The current occupancy index (do not mutate)."""
        return self._occupied

    @property
    def kernel(self) -> "HeapKernel | None":
        """The attached vectorized kernel, or None (reference backend)."""
        return self._kernel

    @property
    def high_water(self) -> int:
        """``HS`` so far: one past the highest word ever occupied."""
        return self._high_water

    @property
    def live_words(self) -> int:
        """Total words currently occupied by live objects."""
        return self._table.live_words

    @property
    def total_allocated(self) -> int:
        """Cumulative words allocated (the paper's ``s``)."""
        return self._total_allocated

    @property
    def total_freed(self) -> int:
        """Cumulative words freed."""
        return self._total_freed

    @property
    def total_moved(self) -> int:
        """Cumulative words moved by compaction (the paper's ``q``)."""
        return self._total_moved

    @property
    def clock(self) -> int:
        """The event sequence counter (monotone)."""
        return self._seq

    def is_free(self, start: int, size: int) -> bool:
        """Whether ``[start, start+size)`` contains no live object."""
        if start < 0 or size <= 0:
            return False
        return not self._occupied.overlaps(start, start + size)

    def free_gaps(self, upto: int | None = None) -> Iterator[tuple[int, int]]:
        """Free ranges within ``[0, upto)`` (default: the high-water mark)."""
        end = self._high_water if upto is None else upto
        return self._occupied.gaps(0, end)

    def objects_in_range(self, start: int, end: int) -> list[HeapObject]:
        """Live objects intersecting ``[start, end)``, ascending address.

        Answered from the address-sorted index in O(hits + log live).
        Live objects are disjoint, so the address order is total.
        """
        if end <= start:
            return []
        if not self._address_index_ready:
            self._by_address = {
                obj.address: obj for obj in self._table.live_objects()
            }
            self._address_order = sorted(self._by_address)
            self._address_index_ready = True
        order = self._address_order
        lo = bisect_left(order, start)
        hits: list[HeapObject] = []
        if lo > 0:
            prev = self._by_address[order[lo - 1]]
            if prev.end > start:
                hits.append(prev)
        hi = bisect_left(order, end, lo=lo)
        for address in order[lo:hi]:
            hits.append(self._by_address[address])
        return hits

    # Mutations ----------------------------------------------------------------

    def place(self, address: int, size: int) -> HeapObject:
        """Allocate a new object at ``address``; returns it.

        Raises :class:`OverlapError` when the range is not free and
        :class:`PlacementError` on a nonsensical address/size.
        """
        if address < 0 or size <= 0:
            raise PlacementError(f"bad placement addr={address} size={size}")
        try:
            self._occupied.add(address, address + size)
        except ValueError as exc:
            raise OverlapError(str(exc)) from None
        self._seq += 1
        obj = self._table.create(address, size, alloc_seq=self._seq)
        if self._address_index_ready:
            self._by_address[address] = obj
            insort(self._address_order, address)
        self._total_allocated += size
        self._high_water = max(self._high_water, obj.end)
        return obj

    def free(self, object_id: int) -> HeapObject:
        """De-allocate a live object; its words become free."""
        self._seq += 1
        obj = self._table.mark_freed(object_id, free_seq=self._seq)
        self._occupied.remove(obj.address, obj.end)
        if self._address_index_ready:
            del self._by_address[obj.address]
            order = self._address_order
            order.pop(bisect_left(order, obj.address))
        self._total_freed += obj.size
        return obj

    def move(self, object_id: int, new_address: int) -> HeapObject:
        """Relocate a live object (a compaction move).

        The destination must be entirely free *after* vacating the
        object's current words — moves within overlapping ranges (the
        memmove case) are allowed, as real compactors slide objects.
        """
        obj = self._table.require_live(object_id)
        if new_address < 0:
            raise PlacementError(f"bad move target {new_address}")
        if new_address == obj.address:
            return obj
        self._occupied.remove(obj.address, obj.end)
        try:
            self._occupied.add(new_address, new_address + obj.size)
        except ValueError as exc:
            # Roll back so the heap stays consistent for the caller.
            self._occupied.add(obj.address, obj.end)
            raise OverlapError(str(exc)) from None
        if self._address_index_ready:
            del self._by_address[obj.address]
            order = self._address_order
            order.pop(bisect_left(order, obj.address))
            self._by_address[new_address] = obj
            insort(order, new_address)
        self._seq += 1
        self._table.record_move(object_id, new_address)
        self._total_moved += obj.size
        self._high_water = max(self._high_water, obj.end)
        return obj

    # Validation -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Cross-check the occupancy index against the object table.

        Used by tests (and cheap enough to call between adversary steps):
        the union of live-object ranges must equal the occupied set, and
        live words must sum consistently.
        """
        rebuilt = IntervalSet()
        words = 0
        for obj in self._table.live_objects():
            rebuilt.add(obj.address, obj.end)  # raises on overlap
            words += obj.size
        assert words == self._table.live_words, "live-word accounting drifted"
        assert rebuilt == self._occupied, "occupancy index drifted"
        assert self._occupied.span_end <= self._high_water, (
            "high-water mark below live span"
        )
        self._occupied.check_invariants()
        if self._address_index_ready:
            expected = sorted(
                obj.address for obj in self._table.live_objects()
            )
            assert self._address_order == expected, "address index drifted"
            assert all(
                self._by_address[addr].address == addr
                for addr in self._address_order
            ), "address map drifted"
