"""Robson's bad program :math:`P_R` (Algorithm 2), compaction-tolerant.

The program works in steps.  Step 0 fills the live budget with one-word
objects.  Step ``i`` picks an offset ``f_i`` in ``{f_{i-1},
f_{i-1} + 2^{i-1}}`` maximizing the wasted space
:math:`\\sum_{o\\ f_i\\text{-occupying}} (2^i - |o|)`, frees every
object that is *not* f_i-occupying, and allocates as many ``2^i``-word
objects as the live budget allows.  Kept objects pin one word at offset
``f_i`` of their chunk, so no two adjacent chunks can ever hold a later
(larger) object between them — the heap shatters.

Robson analysed the program against non-moving managers.  The paper
reuses it as Stage I of :math:`P_F` by adding *ghost* handling
(Definition 4.1): if the manager moves an object, the program frees it
at once but keeps a ghost at its birth address participating in all
offset/free/allocation decisions — the reduction of §4.2 shows this
preserves Robson's guarantees.  :class:`RobsonEngine` implements the
step machinery with ghosts; :class:`RobsonProgram` is the standalone
adversary (steps ``1 .. log2(n)``).
"""

from __future__ import annotations

from ..core.params import BoundParams
from ..heap.object_model import HeapObject
from .base import AdversaryProgram, ProgramView
from .ghosts import GhostRegistry

__all__ = ["RobsonEngine", "RobsonProgram"]


class RobsonEngine:
    """The reusable step machinery (used standalone and by Stage I of P_F)."""

    def __init__(self, view: ProgramView, ghosts: GhostRegistry) -> None:
        self.view = view
        self.ghosts = ghosts
        self.offset = 0  # the current f_i
        self.step_index = 0
        # live engine objects: id -> (birth address, size).  Addresses
        # never change while live (a moved object is freed immediately).
        self._live: dict[int, tuple[int, int]] = {}
        self._live_words = 0

    # Bookkeeping fed by the program's move/free plumbing -------------------

    def notify_freed(self, object_id: int) -> None:
        """An engine object died (program free or move-then-free)."""
        record = self._live.pop(object_id, None)
        if record is not None:
            self._live_words -= record[1]

    def adopt(self, obj: HeapObject) -> None:
        """Track a freshly allocated live object."""
        self._live[obj.object_id] = (obj.birth_address, obj.size)
        self._live_words += obj.size

    @property
    def live_words(self) -> int:
        """Words in live engine objects."""
        return self._live_words

    @property
    def considered_words(self) -> int:
        """Live + ghost words — the Algorithm-1-line-7 allocation cap."""
        return self._live_words + self.ghosts.words

    def live_items(self) -> list[tuple[int, int, int]]:
        """``(object_id, address, size)`` for live engine objects."""
        return [(oid, addr, size) for oid, (addr, size) in self._live.items()]

    # Steps ----------------------------------------------------------------

    def initial_step(self) -> None:
        """Step 0: fill the live budget with one-word objects."""
        self.offset = 0
        self.step_index = 0
        budget = self.view.live_space_bound - self.considered_words
        for _ in range(budget):
            obj = self.view.allocate(1)
            if self.view.is_live(obj.object_id):
                self.adopt(obj)

    @staticmethod
    def _occupies(address: int, size: int, offset: int, period: int) -> bool:
        first = address + ((offset - address) % period)
        return first < address + size

    def _wasted_space(self, offset: int, period: int) -> int:
        """:math:`\\sum (2^i - |o|)` over f-occupying live + ghost items."""
        total = 0
        for _, address, size in self.live_items():
            if self._occupies(address, size, offset, period):
                total += period - size
        for ghost in self.ghosts:
            if ghost.occupies_offset(offset, period):
                total += period - ghost.size
        return total

    def choose_offset(self, i: int) -> int:
        """Pick ``f_i`` from the two candidates (ties keep ``f_{i-1}``)."""
        period = 1 << i
        keep = self.offset
        shift = self.offset + (1 << (i - 1))
        if self._wasted_space(shift, period) > self._wasted_space(keep, period):
            return shift
        return keep

    def step(self, i: int) -> None:
        """One full Robson step: pick offset, free, refill."""
        if i < 1:
            raise ValueError("steps are numbered from 1")
        period = 1 << i
        self.offset = self.choose_offset(i)
        self.step_index = i
        # Free every live object that is not f_i-occupying.
        for object_id, address, size in self.live_items():
            if not self._occupies(address, size, self.offset, period):
                self.view.free(object_id)
                self.notify_freed(object_id)
        # Ghosts leave the story the same way (no physical free needed).
        self.ghosts.drop_non_occupying(self.offset, period)
        # Refill the live budget with 2^i-word objects.
        count = (self.view.live_space_bound - self.considered_words) // period
        for _ in range(count):
            obj = self.view.allocate(period)
            if self.view.is_live(obj.object_id):
                self.adopt(obj)

    def occupying_word(self, address: int, size: int) -> int:
        """The item's (unique, since ``size <= 2^i``) f-occupying word."""
        period = 1 << self.step_index
        first = address + ((self.offset - address) % period)
        if first >= address + size:
            raise ValueError("item is not f-occupying at the current offset")
        return first


class RobsonProgram(AdversaryProgram):
    """Standalone :math:`P_R`: steps ``1 .. log2(n)`` after the fill."""

    name = "robson-PR"

    def __init__(
        self,
        params: BoundParams,
        *,
        max_step: int | None = None,
    ) -> None:
        self.params = params
        self.max_step = params.log_n if max_step is None else max_step
        if not 0 <= self.max_step <= params.log_n:
            raise ValueError(
                f"max_step must lie in [0, log2(n)] = [0, {params.log_n}]"
            )
        self.ghosts = GhostRegistry()
        self.engine: RobsonEngine | None = None

    def run(self, view: ProgramView) -> None:
        engine = RobsonEngine(view, self.ghosts)
        self.engine = engine

        def on_move(obj: HeapObject, old: int, new: int) -> None:
            # Definition 4.1: free immediately, haunt the birth address.
            view.free(obj.object_id)
            engine.notify_freed(obj.object_id)
            self.ghosts.record(obj)

        view.set_move_listener(on_move)
        # Each round boundary is a "robson" stage announced to the view.
        view.stage("robson", 0, "initial fill")
        engine.initial_step()
        for i in range(1, self.max_step + 1):
            view.stage("robson", i)
            engine.step(i)
        view.set_move_listener(None)
