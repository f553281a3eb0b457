"""Compacting memory managers.

Two designs live here:

* :class:`SlidingCompactor` — a threshold compactor that, when no gap
  fits the next request, slides objects left (lowest gap first) for as
  long as the ``c``-partial budget allows.  This is the "spend budget
  only under pressure" discipline most partial compactors in production
  runtimes follow, and the natural opponent for :math:`P_F`.

* :class:`BPCollectorManager` — Bendersky & Petrank's simple collector
  :math:`A_c`: bump allocation inside an arena of ``(c+1) * M`` words
  with a full sliding compaction whenever the bump pointer reaches the
  arena end.  Between two compactions at least ``c * M`` words are
  allocated, so the earned budget always covers moving the ``<= M`` live
  words — the manager realizes the POPL'11 upper bound, and the
  experiments verify its heap never exceeds ``(c+1) M``.

Both use an address-ordered index of live objects maintained from the
manager callbacks, because sliding needs "the first live object after
this gap" quickly.
"""

from __future__ import annotations

import bisect

from ..heap.object_model import HeapObject
from .base import MemoryManager, find_first_fit, find_relocation_target

__all__ = [
    "AddressIndex",
    "SlidingCompactor",
    "BPCollectorManager",
    "CheapestWindowCompactor",
]


class AddressIndex:
    """Live objects ordered by current address.

    Kept in sync via the manager callbacks plus explicit notification on
    self-inflicted moves.  (The index tolerates the adversary freeing an
    object from inside a move listener: the driver's ``on_free`` callback
    reaches the manager, which forwards it here.)
    """

    def __init__(self) -> None:
        self._addresses: list[int] = []
        self._ids: list[int] = []

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, obj: HeapObject) -> None:
        """Insert a live object at its current address."""
        position = bisect.bisect_left(self._addresses, obj.address)
        self._addresses.insert(position, obj.address)
        self._ids.insert(position, obj.object_id)

    def discard(self, object_id: int, address: int) -> None:
        """Remove the entry for ``object_id`` recorded at ``address``."""
        position = bisect.bisect_left(self._addresses, address)
        while (
            position < len(self._addresses)
            and self._addresses[position] == address
        ):
            if self._ids[position] == object_id:
                del self._addresses[position]
                del self._ids[position]
                return
            position += 1

    def moved(self, obj: HeapObject, old_address: int) -> None:
        """Re-file an object after a move."""
        self.discard(obj.object_id, old_address)
        self.add(obj)

    def first_at_or_after(self, address: int) -> int | None:
        """Id of the lowest-addressed live object at ``>= address``."""
        position = bisect.bisect_left(self._addresses, address)
        if position < len(self._ids):
            return self._ids[position]
        return None


class SlidingCompactor(MemoryManager):
    """First-fit placement; slides objects left when nothing fits.

    The compaction pass repeatedly takes the lowest free gap and moves
    the first live object above it down to the gap start (the object is
    adjacent or higher, so the slide target is always free once the
    object vacates).  The pass stops as soon as a gap fits the pending
    request, the budget runs dry, or the heap is fully compacted.
    """

    name = "sliding-compactor"

    def __init__(self) -> None:
        super().__init__()
        self._index = AddressIndex()

    # Bookkeeping -----------------------------------------------------------

    def on_place(self, obj: HeapObject) -> None:
        self._index.add(obj)

    def on_free(self, obj: HeapObject) -> None:
        self._index.discard(obj.object_id, obj.address)

    # Compaction --------------------------------------------------------------

    def _has_fitting_gap(self, size: int) -> bool:
        return (
            self.heap.occupied.find_first_gap(size, end=self.heap.occupied.span_end)
            is not None
        )

    def prepare(self, size: int) -> None:
        while not self._has_fitting_gap(size):
            gap = next(iter(self.heap.free_gaps()), None)
            if gap is None:
                return  # heap is fully compacted below the high-water mark
            gap_start = gap[0]
            victim_id = self._index.first_at_or_after(gap_start)
            if victim_id is None:
                return
            victim = self.heap.objects.require_live(victim_id)
            if not self.ctx.can_afford_move(victim.size):
                return
            old_address = victim.address
            self.ctx.move(victim_id, gap_start)
            # The adversary may have freed the object from its listener;
            # only re-file it if it is still live.
            if self.heap.objects.is_live(victim_id):
                self._index.moved(victim, old_address)
            else:
                self._index.discard(victim_id, old_address)

    def place(self, size: int) -> int:
        return find_first_fit(self.heap, size)


class BPCollectorManager(MemoryManager):
    """Bendersky–Petrank's ``(c+1) M`` collector :math:`A_c`.

    Parameters
    ----------
    live_space_bound:
        The program's ``M``; the arena is sized ``ceil((c+1) * M)``.
        (The model tells managers ``M`` — the bound is parameterized by
        it, so this is not cheating.)
    """

    name = "bp-collector"

    def __init__(self, live_space_bound: int) -> None:
        super().__init__()
        if live_space_bound <= 0:
            raise ValueError("live_space_bound must be positive")
        self._live_bound = live_space_bound
        self._bump = 0
        self._arena_end: int | None = None  # set on attach (needs c)
        self._index = AddressIndex()

    def on_attach(self) -> None:
        divisor = self.ctx.budget.divisor
        if divisor is None:
            raise ValueError("BPCollectorManager needs a finite c")
        self._arena_end = int((divisor + 1) * self._live_bound) + 1

    # Bookkeeping ----------------------------------------------------------

    def on_place(self, obj: HeapObject) -> None:
        self._index.add(obj)
        self._bump = max(self._bump, obj.end)

    def on_free(self, obj: HeapObject) -> None:
        self._index.discard(obj.object_id, obj.address)

    # Allocation ---------------------------------------------------------------

    def _compact_all(self) -> None:
        """Slide every live object to the bottom, in address order."""
        new_bump = 0
        cursor_id = self._index.first_at_or_after(0)
        while cursor_id is not None:
            obj = self.heap.objects.require_live(cursor_id)
            old_address = obj.address
            if old_address > new_bump:
                if not self.ctx.can_afford_move(obj.size):
                    break  # partial pass: budget exhausted mid-compaction
                self.ctx.move(cursor_id, new_bump)
                if self.heap.objects.is_live(cursor_id):
                    self._index.moved(obj, old_address)
                else:
                    self._index.discard(cursor_id, old_address)
            new_bump += obj.size
            cursor_id = self._index.first_at_or_after(
                max(old_address + 1, new_bump)
            )
        self._bump = new_bump

    def prepare(self, size: int) -> None:
        assert self._arena_end is not None
        if self._bump + size <= self._arena_end:
            return
        live = self.heap.live_words
        if live and not self.ctx.can_afford_move(1):
            return  # no budget yet; place() will fall back to first-fit
        self._compact_all()

    def place(self, size: int) -> int:
        assert self._arena_end is not None
        if self._bump + size <= self._arena_end:
            return self._bump
        # Out of arena (can only happen when compaction was impossible);
        # degrade to first-fit rather than fail the request.
        return find_first_fit(self.heap, size)

    @property
    def arena_end(self) -> int | None:
        """The ``(c+1) M`` arena limit (None before attach)."""
        return self._arena_end


class CheapestWindowCompactor(MemoryManager):
    """Evacuates the *optimal* window when nothing fits.

    Where :class:`SlidingCompactor` slides blindly from the lowest gap,
    this manager asks :func:`repro.analysis.defrag.cheapest_window` for
    the ``size``-word window whose evacuation moves the fewest live
    words, clears it (relocating victims first-fit outside the window),
    and places there.  Same budget discipline; strictly smarter spending
    — the PF experiments show it among the best of the family.
    """

    name = "window-compactor"

    def __init__(self) -> None:
        super().__init__()
        self._pending_target: int | None = None
        # Throttle: a failed evacuation attempt for a given size cannot
        # succeed until the layout changes (free/move) or the budget
        # grows past the cheapest cost seen.
        self._layout_epoch = 0
        self._retry: dict[int, tuple[int, float]] = {}

    def on_free(self, obj: HeapObject) -> None:
        self._layout_epoch += 1

    def prepare(self, size: int) -> None:
        from ..analysis.defrag import cheapest_interior_window

        self._pending_target = None
        span_end = self.heap.occupied.span_end
        if self.heap.occupied.find_first_gap(size, end=span_end) is not None:
            return  # something fits already
        cached = self._retry.get(size)
        if cached is not None:
            epoch, needed = cached
            if epoch == self._layout_epoch and (
                needed == float("inf")
                or self.ctx.budget.remaining < needed
            ):
                return
        found = cheapest_interior_window(self.heap, size)
        if found is None:
            self._retry[size] = (self._layout_epoch, float("inf"))
            return
        start, cost = found
        if not self.ctx.can_afford_move(max(1, cost)):
            self._retry[size] = (self._layout_epoch, float(cost))
            return
        self._retry.pop(size, None)
        for victim in self.heap.objects_in_range(start, start + size):
            if not self.ctx.can_afford_move(victim.size):
                return  # budget shifted mid-evacuation; abort politely
            target = find_relocation_target(
                self.heap, victim.size, start, start + size
            )
            self.ctx.move(victim.object_id, target)
            self._layout_epoch += 1
        if self.heap.is_free(start, size):
            self._pending_target = start

    def place(self, size: int) -> int:
        if self._pending_target is not None and self.heap.is_free(
            self._pending_target, size
        ):
            target = self._pending_target
            self._pending_target = None
            return target
        return find_first_fit(self.heap, size)
