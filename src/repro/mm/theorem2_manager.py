"""A size-class manager in the spirit of Theorem 2's construction.

Theorem 2's manager (full construction in the paper's extended version)
serves rounded power-of-two size classes out of class-aligned regions,
spending its limited budget to evacuate *sparse* class regions before it
extends the heap.  :class:`Theorem2Manager` implements that scheme:

* requests round up to a power of two; each class allocates class-
  aligned (so a class region is also a chunk in the paper's sense);
* before extending the frontier, the manager looks for a class-aligned
  region whose live occupancy is at most ``evacuation_fraction`` of the
  region and whose evacuation fits the budget; live objects are moved
  out (first-fit into existing gaps) and the region is reused.

The recursion ``a_i`` of Theorem 2 is a *bound* on how much space each
class can pin; this manager is the executable counterpart, and the
experiment suite checks its measured heap stays below the Theorem-2
guarantee ``2M * sum(max(a_i, 1/(4-2/c))) + 2n log n`` on the adversary
family (it cannot *prove* the bound — that is the theorem's job — but a
violation would falsify the reconstruction).
"""

from __future__ import annotations

from ..heap.chunks import ChunkId, ChunkPartition
from ..heap.object_model import HeapObject
from ..heap.units import align_up, floor_log2, next_power_of_two
from .base import MemoryManager, find_relocation_target

__all__ = ["Theorem2Manager"]


class Theorem2Manager(MemoryManager):
    """Class-aligned segregated allocation with budgeted evacuation."""

    name = "theorem2"

    def __init__(self, *, evacuation_fraction: float = 0.25) -> None:
        super().__init__()
        if not 0.0 < evacuation_fraction <= 1.0:
            raise ValueError("evacuation_fraction must be in (0, 1]")
        self.evacuation_fraction = evacuation_fraction
        # class size -> stack of reusable aligned slot addresses
        self._free_slots: dict[int, list[int]] = {}
        self._slot_class: dict[int, int] = {}
        self._pending_class: int | None = None
        # Evacuation retry throttle: a failed attempt for a class cannot
        # succeed until either the heap layout changes (a free or a move
        # reduces some chunk's occupancy — tracked by bumping
        # ``_layout_epoch``) or the budget grows past the cheapest
        # candidate seen (``_retry_budget``).
        self._layout_epoch = 0
        self._evac_state: dict[int, tuple[int, float]] = {}

    # Slot bookkeeping (same shape as the segregated baseline) -------------

    def _class_of(self, size: int) -> int:
        return next_power_of_two(size)

    def on_place(self, obj: HeapObject) -> None:
        cls = self._pending_class
        assert cls is not None, "on_place without place"
        self._pending_class = None
        slots = self._free_slots.get(cls)
        if slots and slots[-1] == obj.address:
            slots.pop()
        self._slot_class[obj.object_id] = cls

    def on_free(self, obj: HeapObject) -> None:
        self._layout_epoch += 1
        cls = self._slot_class.pop(obj.object_id, None)
        if cls is not None and obj.address % cls == 0:
            self._free_slots.setdefault(cls, []).append(obj.address)

    # Evacuation -------------------------------------------------------------

    def _try_evacuate(self, cls: int) -> int | None:
        """Free up one ``cls``-aligned region by moving its live objects.

        Scans class-aligned chunks below the high-water mark for the
        sparsest affordable one; returns its start address on success.
        A failed attempt is cached per class until the layout changes or
        the budget reaches the cheapest candidate seen, so the sweep is
        not repeated on every allocation.
        """
        cached = self._evac_state.get(cls)
        if cached is not None:
            epoch, needed_budget = cached
            if epoch == self._layout_epoch and (
                needed_budget == float("inf")
                or self.ctx.budget.remaining < needed_budget
            ):
                return None
        partition = ChunkPartition(floor_log2(cls))
        best_chunk = None
        best_occupancy: int | None = None
        if self.heap.kernel is not None:
            from .fastpath import sparsest_chunk

            found = sparsest_chunk(
                self.heap, cls, self.evacuation_fraction * cls
            )
            if found is not None:
                best_chunk = ChunkId(partition.exponent, found[0])
                best_occupancy = found[1]
        else:
            for index, occupancy in partition.occupancies(self.heap).items():
                if occupancy > self.evacuation_fraction * cls:
                    continue
                if best_occupancy is None or occupancy < best_occupancy:
                    best_chunk = ChunkId(partition.exponent, index)
                    best_occupancy = occupancy
        if best_chunk is None or best_occupancy is None:
            self._evac_state[cls] = (self._layout_epoch, float("inf"))
            return None
        if best_occupancy and not self.ctx.can_afford_move(best_occupancy):
            self._evac_state[cls] = (self._layout_epoch, float(best_occupancy))
            return None
        self._evac_state.pop(cls, None)
        # Move every live object intersecting the chunk out of it, in
        # allocation order (ascending object_id, the live table's
        # order): the move sequence, and so the event digest, depends
        # on it.
        victims = self.heap.objects_in_range(best_chunk.start, best_chunk.end)
        victims.sort(key=lambda obj: obj.object_id)
        for victim in victims:
            if not self.ctx.can_afford_move(victim.size):
                return None  # partial evacuation; region not reusable
            target = find_relocation_target(
                self.heap, victim.size, best_chunk.start, best_chunk.end
            )
            self.ctx.move(victim.object_id, target)
            self._layout_epoch += 1
        if self.heap.is_free(best_chunk.start, cls):
            return best_chunk.start
        return None

    # Placement ----------------------------------------------------------------

    def place(self, size: int) -> int:
        cls = self._class_of(size)
        self._pending_class = cls
        slots = self._free_slots.get(cls)
        while slots:
            candidate = slots[-1]
            if self.heap.is_free(candidate, size):
                return candidate
            slots.pop()  # stale slot (e.g. our own evacuations reused it)
        aligned_fit = self._aligned_gap(cls, size)
        if aligned_fit is not None:
            return aligned_fit
        evacuated = self._try_evacuate(cls)
        if evacuated is not None:
            return evacuated
        return align_up(self.heap.occupied.span_end, cls)

    def _aligned_gap(self, cls: int, size: int) -> int | None:
        """Lowest ``cls``-aligned free address with ``size`` room."""
        return self.heap.occupied.find_first_gap(
            size, alignment=cls, end=self.heap.occupied.span_end
        )

    # Unused compaction window: evacuation happens lazily inside place().
    def prepare(self, size: int) -> None:  # noqa: D102 - interface stub
        _ = size
