"""Shadow-heap checker: replay the heap from events, flag impossibilities.

The sanitizer keeps its own model of the heap — which object ids are
live, where each one sits, which words are occupied — built purely from
:class:`~repro.obs.events.Alloc` / :class:`~repro.obs.events.Free` /
:class:`~repro.obs.events.Move` events, and flags anything the real
:class:`~repro.heap.heap.SimHeap` would have refused:

* two live objects overlapping (``overlap`` / ``move-overlap``);
* a free of an unknown or already-freed id (``free-unknown`` /
  ``double-free``) or a move of one (``move-unknown`` /
  ``use-after-free``);
* an event whose size/address disagrees with the shadow's record of the
  object (``metadata-mismatch``);
* moves outside a compaction window: every move must be accounted for by
  a :class:`~repro.obs.events.CompactionWindow` before the next
  :class:`~repro.obs.events.Alloc` closes the request
  (``moves-without-window`` / ``window-mismatch`` / ``empty-window``).

The window rules encode the interaction model of §2.1: the manager may
only compact inside the window the driver opens before each allocation,
and the driver aggregates exactly the moves of that window into one
``CompactionWindow`` event (omitted when nothing moved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..heap.intervals import IntervalSet
from ..obs.tape import ALLOC, FREE, MOVE, WINDOW
from .base import CheckContext, Checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tape import EventTape

__all__ = ["ShadowHeapChecker"]


@dataclass
class _ShadowObject:
    """One live object in the shadow model."""

    address: int
    size: int


class ShadowHeapChecker(Checker):
    """Independent replay of heap state from the event stream."""

    name = "shadow-heap"
    invariant = (
        "live objects are disjoint; every free/move targets a live object "
        "with matching metadata; moves happen only inside compaction windows"
    )

    def __init__(self, context: CheckContext) -> None:
        super().__init__(context)
        self._live: dict[int, _ShadowObject] = {}
        self._freed: set[int] = set()
        self._occupied = IntervalSet()
        # Window accounting for the current allocation request.
        self._pending_moves = 0
        self._pending_words = 0
        self._window_moves = 0
        self._window_words = 0
        self._window_seen = False

    def check(self, tape: "EventTape") -> None:
        tape.walk({ALLOC: self._on_alloc, FREE: self._on_free,
                   MOVE: self._on_move, WINDOW: self._on_window})
        self._end_of_stream()

    # Row handlers -----------------------------------------------------------

    def _occupy(self, address: int, size: int, rule: str, seq: int,
                object_id: int) -> None:
        """Claim ``[address, address + size)`` in the shadow occupancy."""
        try:
            self._occupied.add(address, address + size)
        except ValueError:
            self.report(
                rule,
                f"object {object_id} placed at [{address}, {address + size}) "
                "overlaps live words",
                seq=seq,
            )

    def _release(self, obj: _ShadowObject) -> None:
        """Drop an object's words, tolerating earlier overlap corruption."""
        try:
            self._occupied.remove(obj.address, obj.address + obj.size)
        except ValueError:
            # The interval was never (fully) claimed because its
            # placement already overlapped; that violation is on record.
            pass

    def _on_alloc(self, seq: int, object_id: int, size: int, address: int,
                  latency_ns: int) -> None:
        self._close_window(seq)
        if size <= 0:
            self.report(
                "bad-size",
                f"alloc of object {object_id} has size {size}",
                seq=seq,
            )
            return
        if object_id in self._live:
            self.report(
                "duplicate-id",
                f"object id {object_id} allocated while already live",
                seq=seq,
            )
            return
        if object_id in self._freed:
            self.report(
                "id-reuse",
                f"object id {object_id} reused after being freed "
                "(the simulator never recycles ids)",
                seq=seq,
            )
        self._occupy(address, size, "overlap", seq, object_id)
        self._live[object_id] = _ShadowObject(address, size)

    def _on_free(self, seq: int, object_id: int, size: int,
                 address: int) -> None:
        obj = self._live.pop(object_id, None)
        if obj is None:
            if object_id in self._freed:
                self.report(
                    "double-free",
                    f"object {object_id} freed twice",
                    seq=seq,
                )
            else:
                self.report(
                    "free-unknown",
                    f"free of unknown object id {object_id}",
                    seq=seq,
                )
            return
        if obj.address != address or obj.size != size:
            self.report(
                "metadata-mismatch",
                f"free of object {object_id} reports "
                f"(address={address}, size={size}) but the shadow "
                f"heap has (address={obj.address}, size={obj.size})",
                seq=seq,
            )
        self._release(obj)
        self._freed.add(object_id)

    def _on_move(self, seq: int, object_id: int, size: int, old_address: int,
                 new_address: int) -> None:
        obj = self._live.get(object_id)
        if obj is None:
            rule = ("use-after-free" if object_id in self._freed
                    else "move-unknown")
            self.report(
                rule,
                f"move of {'freed' if rule == 'use-after-free' else 'unknown'} "
                f"object id {object_id}",
                seq=seq,
            )
            return
        if obj.address != old_address or obj.size != size:
            self.report(
                "metadata-mismatch",
                f"move of object {object_id} reports "
                f"(old_address={old_address}, size={size}) but the "
                f"shadow heap has (address={obj.address}, size={obj.size})",
                seq=seq,
            )
        self._release(obj)
        self._occupy(new_address, obj.size, "move-overlap", seq, object_id)
        obj.address = new_address
        self._pending_moves += 1
        self._pending_words += obj.size

    def _on_window(self, seq: int, request_size: int, moves: int,
                   moved_words: int) -> None:
        if self._window_seen:
            self.report(
                "window-mismatch",
                "two compaction windows inside one allocation request",
                seq=seq,
            )
        if moves <= 0:
            self.report(
                "empty-window",
                "compaction window reports zero moves (empty windows are "
                "not emitted)",
                seq=seq,
            )
        self._window_seen = True
        self._window_moves = moves
        self._window_words = moved_words

    def _close_window(self, seq: int) -> None:
        """An Alloc closes the request; reconcile moves vs. window."""
        if self._pending_moves and not self._window_seen:
            self.report(
                "moves-without-window",
                f"{self._pending_moves} move(s) ({self._pending_words} words) "
                "not covered by any compaction window",
                seq=seq,
            )
        elif self._window_seen and (
            self._window_moves != self._pending_moves
            or self._window_words != self._pending_words
        ):
            self.report(
                "window-mismatch",
                f"compaction window claims {self._window_moves} move(s) / "
                f"{self._window_words} words but the stream shows "
                f"{self._pending_moves} / {self._pending_words}",
                seq=seq,
            )
        self._pending_moves = 0
        self._pending_words = 0
        self._window_moves = 0
        self._window_words = 0
        self._window_seen = False

    def _end_of_stream(self) -> None:
        if self._window_seen:
            # The driver emits a window only immediately before the Alloc
            # that closes the same request; a trailing one is impossible.
            self.report(
                "window-mismatch",
                "compaction window after the final allocation",
            )
        elif self._pending_moves:
            self.report(
                "moves-without-window",
                f"{self._pending_moves} trailing move(s) "
                f"({self._pending_words} words) after the final allocation "
                "request, covered by no compaction window",
            )
