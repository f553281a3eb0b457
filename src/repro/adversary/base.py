"""Program-side interface to an execution.

The paper's model (§2.1): the program issues de-allocations and
allocation requests, learns the address of every allocated object, and is
told (implicitly, by observing the allocator) when objects move.  Our
driver makes the move signal explicit — :class:`ProgramView` lets the
program register a move listener that fires *immediately* after each
compaction move, which is precisely the hook :math:`P_F` needs to free
moved objects on the spot.  A program may also announce its phases
(:meth:`ProgramView.stage`); the driver records them with the rest of
the run.

A program is anything implementing :class:`AdversaryProgram`; the name is
historical — benign workloads (used to exercise the upper-bound
managers) implement the same interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from ..heap.object_model import HeapObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .driver import ExecutionDriver

__all__ = ["ProgramView", "AdversaryProgram", "ProgramMoveListener"]

#: (object, old_address, new_address) — fired right after each move.
ProgramMoveListener = Callable[[HeapObject, int, int], None]


class ProgramView:
    """The program's handle on the execution (capability-style)."""

    def __init__(self, driver: "ExecutionDriver") -> None:
        self._driver = driver

    # Requests -------------------------------------------------------------

    def allocate(self, size: int) -> HeapObject:
        """Request an object of ``size`` words; returns it (address visible).

        The driver may run the manager's compaction window first, so the
        move listener can fire from inside this call.
        """
        return self._driver.program_allocate(size)

    def free(self, object_id: int) -> None:
        """De-allocate one of the program's live objects."""
        self._driver.program_free(object_id)

    def stage(self, stage: str, step: int, label: str = "") -> None:
        """Announce a phase boundary: round ``step`` of ``stage`` begins.

        The driver records it as a
        :class:`~repro.obs.events.StageTransition` (when it has an event
        bus) and as a ``stage:<stage>`` span (when it has a tracer);
        ``label`` names the boundary for reports.
        """
        self._driver.program_stage(stage, step, label)

    # Observation -------------------------------------------------------------

    @property
    def live_words(self) -> int:
        """The program's current simultaneous live space."""
        return self._driver.heap.live_words

    @property
    def live_space_bound(self) -> int:
        """The contract bound ``M``."""
        return self._driver.params.live_space

    @property
    def max_object(self) -> int:
        """The contract bound ``n``."""
        return self._driver.params.max_object

    def is_live(self, object_id: int) -> bool:
        """Whether an object the program allocated is still live."""
        return self._driver.heap.objects.is_live(object_id)

    def address_of(self, object_id: int) -> int:
        """Current address of a live object (the model grants this)."""
        return self._driver.heap.objects.require_live(object_id).address

    def set_move_listener(self, listener: ProgramMoveListener | None) -> None:
        """Register the immediate move-notification callback."""
        self._driver.program_move_listener = listener


class AdversaryProgram(ABC):
    """A program in the paper's sense: a request sequence with strategy."""

    #: Human-readable program name.
    name = "abstract"

    @abstractmethod
    def run(self, view: ProgramView) -> None:
        """Drive the whole interaction through ``view``."""
