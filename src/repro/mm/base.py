"""Memory-manager interface and the context it acts through.

The paper's interaction model (§2.1) is a loop of sub-interactions:

1. the program de-allocates objects;
2. the memory manager may *compact* (move objects), limited by the
   ``c``-partial budget;
3. the program requests allocations; the manager answers with addresses.

:class:`MemoryManager` is the strategy interface for step 2 + 3.  All of
a manager's effects go through a :class:`ManagerContext`, which wires the
heap, the budget ledger and the move-notification hook together, so no
manager can move words without paying for them, and the adversary is
told about every move *immediately* (which :math:`P_F` needs: it frees
moved objects on the spot, Definition 4.1).

Placement helpers (:func:`find_first_fit` and friends) centralize the
free-gap search used by the classic policies so the policies themselves
stay tiny and obviously correct.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterator

from ..heap.errors import ProtocolError
from ..heap.heap import SimHeap
from ..heap.object_model import HeapObject
from ..heap.units import align_up
from ..obs.trace import Tracer
from .budget import CompactionBudget

__all__ = [
    "ManagerContext",
    "MemoryManager",
    "MoveListener",
    "iter_free_gaps",
    "find_first_fit",
    "find_best_fit",
    "find_worst_fit",
    "find_next_fit",
    "find_relocation_target",
]

#: Called after every compaction move: (object, old_address, new_address).
MoveListener = Callable[[HeapObject, int, int], None]


class ManagerContext:
    """Everything a manager may touch, with the rules baked in."""

    def __init__(
        self,
        heap: SimHeap,
        budget: CompactionBudget,
        move_listener: MoveListener | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.heap = heap
        self.budget = budget
        #: The fine-grained span tracer (None unless per-operation
        #: tracing is on — the driver only wires it in fine mode, so the
        #: common path pays one comparison per move).
        self.tracer = tracer
        self._move_listener = move_listener
        self._moves_this_request = 0
        self._moved_words_this_request = 0

    def move(self, object_id: int, new_address: int) -> HeapObject:
        """Compact one object, spending budget and notifying the program.

        The budget is charged *before* the physical move, so a failed
        budget check leaves the heap untouched.  The program's move
        listener runs after the move and may re-enter the heap (e.g.
        :math:`P_F` frees the object immediately).
        """
        obj = self.heap.objects.require_live(object_id)
        tracer = self.tracer
        if tracer is not None:
            move_span = tracer.begin_unchecked("move", {
                "words": obj.size, "old_address": obj.address,
                "new_address": new_address,
            })
        self.budget.charge_move(obj.size)
        old_address = obj.address
        self.heap.move(object_id, new_address)
        self._moves_this_request += 1
        self._moved_words_this_request += obj.size
        if self._move_listener is not None:
            self._move_listener(obj, old_address, new_address)
        if tracer is not None:
            tracer.end(move_span)
        return obj

    def can_afford_move(self, words: int) -> bool:
        """Budget check without side effects."""
        return self.budget.can_move(words)

    def reset_request_counters(self) -> None:
        """Called by the driver at each allocation request boundary."""
        self._moves_this_request = 0
        self._moved_words_this_request = 0

    @property
    def moves_this_request(self) -> int:
        """Moves performed since the current allocation request began."""
        return self._moves_this_request

    @property
    def moved_words_this_request(self) -> int:
        """Words moved since the current allocation request began."""
        return self._moved_words_this_request


class MemoryManager(ABC):
    """Strategy deciding placement (and optionally compaction).

    Lifecycle: the driver calls :meth:`attach` once, then per event:

    * :meth:`on_free` whenever the program frees an object;
    * :meth:`prepare` before each allocation (the compaction window —
      override to move objects via ``self.ctx.move``);
    * :meth:`place` to pick the address (the driver performs the actual
      placement and then calls :meth:`on_place`).
    """

    #: Human-readable policy name (subclasses override).
    name = "abstract"

    def __init__(self) -> None:
        self._ctx: ManagerContext | None = None

    @property
    def ctx(self) -> ManagerContext:
        """The attached context; raises if the driver never attached us."""
        if self._ctx is None:
            raise ProtocolError(f"manager {self.name!r} was never attached")
        return self._ctx

    @property
    def heap(self) -> SimHeap:
        """Shorthand for ``self.ctx.heap``."""
        return self.ctx.heap

    def attach(self, ctx: ManagerContext) -> None:
        """Bind to an execution.  Managers are single-use."""
        if self._ctx is not None:
            raise ProtocolError(f"manager {self.name!r} attached twice")
        self._ctx = ctx
        self.on_attach()

    # Hooks ---------------------------------------------------------------

    def on_attach(self) -> None:
        """Optional post-attach initialization."""

    def on_free(self, obj: HeapObject) -> None:
        """The program freed ``obj`` (already removed from the heap)."""

    def prepare(self, size: int) -> None:
        """Compaction window before placing an object of ``size`` words."""

    @abstractmethod
    def place(self, size: int) -> int:
        """Return a free address for a new object of ``size`` words."""

    def on_place(self, obj: HeapObject) -> None:
        """The driver placed ``obj`` at the address :meth:`place` chose."""


# Placement search helpers ----------------------------------------------------


def iter_free_gaps(
    heap: SimHeap, *, include_tail: bool = True
) -> Iterator[tuple[int, int | None]]:
    """Free gaps below the covered span, then the unbounded tail.

    Yields ``(start, end)`` pairs; the final tail gap has ``end = None``
    (infinite).  The tail starts at the end of the *covered span* — the
    region between there and the high-water mark was freed and is
    reusable, so it belongs to the tail gap.
    """
    span_end = heap.occupied.span_end
    for start, end in heap.free_gaps(upto=span_end):
        yield (start, end)
    if include_tail:
        yield (span_end, None)


def find_first_fit(
    heap: SimHeap, size: int, *, alignment: int = 1, start_at: int = 0
) -> int:
    """Lowest aligned address (``>= start_at``) with ``size`` free words."""
    span_end = heap.occupied.span_end
    found = heap.occupied.find_first_gap(
        size, alignment=alignment, start=start_at, end=span_end
    )
    if found is not None:
        return found
    # The unbounded tail: everything from the covered span's end is free.
    return align_up(max(span_end, start_at), alignment)


def find_next_fit(heap: SimHeap, size: int, cursor: int, *, alignment: int = 1) -> int:
    """First fit starting from ``cursor``, wrapping to 0 once.

    The "heap" a roving pointer walks is the covered span ``[0,
    span_end)``; only when neither the region above the cursor nor the
    wrapped region below it fits does the allocation extend the heap at
    the span's end.
    """
    span_end = heap.occupied.span_end
    found = heap.occupied.find_first_gap(
        size, alignment=alignment, start=cursor, end=span_end
    )
    if found is not None:
        return found
    found = heap.occupied.find_first_gap(
        size, alignment=alignment, start=0, end=min(cursor, span_end)
    )
    if found is not None:
        return found
    return align_up(max(span_end, 0), alignment)


def find_best_fit(heap: SimHeap, size: int, *, alignment: int = 1) -> int:
    """Address of the *smallest* gap that fits (ties: lowest address).

    The unbounded tail is used only when no finite gap fits.
    """
    best_address, _ = heap.occupied.find_best_gap(
        size, alignment=alignment, end=heap.occupied.span_end
    )
    if best_address is not None:
        return best_address
    return align_up(heap.occupied.span_end, alignment)


def find_worst_fit(heap: SimHeap, size: int, *, alignment: int = 1) -> int:
    """Address of the *largest* gap that fits (ties: lowest address)."""
    found = heap.occupied.find_worst_gap(size, alignment=alignment)
    if found is not None:
        return found
    return align_up(heap.occupied.span_end, alignment)


def find_relocation_target(
    heap: SimHeap, size: int, avoid_start: int, avoid_end: int
) -> int:
    """Lowest free address for ``size`` words outside ``[avoid_start, avoid_end)``.

    The relocation search used while *evacuating* a region: any gap
    intersecting the region contributes only its part **above**
    ``avoid_end`` (the part below would re-fragment what is being
    cleared).  Falls back to the free tail past both the covered span
    and the region.  Kept as a deliberate linear scan on the reference
    backend: the clipping semantics are not expressible as a plain
    gap-index query.  With a kernel attached the same rule runs
    vectorized over the whole gap array at once
    (:func:`repro.mm.fastpath.relocation_target` — proven to return the
    identical address).
    """
    if heap.kernel is not None:
        from .fastpath import relocation_target

        return relocation_target(heap, size, avoid_start, avoid_end)
    span_end = heap.occupied.span_end
    for gap_start, gap_end in heap.free_gaps(upto=span_end):
        start = gap_start
        if start < avoid_end and gap_end > avoid_start:
            # Gap intersects the region; only use the part above it.
            start = max(start, avoid_end)
        if gap_end - start >= size:
            return start
    return max(span_end, avoid_end)
