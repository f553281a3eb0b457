"""Trace replay: re-run a recorded request stream against a new manager.

A run's :class:`~repro.obs.tape.EventTape` holds the program-visible
requests as its ``alloc`` rows (with sizes) and ``free`` rows (by object
id).  Record one by passing an :class:`~repro.obs.events.EventBus` as
the driver's ``observer=``, or load a stored run with
``load_run(directory).tape`` — any run directory or sweep-cache entry.
The adversaries are *adaptive* — replaying their requests against a
different manager is not the same as running them afresh (they would
have chosen differently) — but replay is exactly what is needed for:

* A/B comparisons of managers on identical request streams (the classic
  allocator-benchmark methodology);
* regression debugging: shrink a failing adversarial run and replay it
  deterministically.

Frees name the recorded ``object_id``, which is mapped to the object
the replay allocated for that id, so a tape can be replayed against any
manager regardless of how ids were assigned originally.  Frees of
objects that died implicitly in the original run (moved-then-freed by
the adversary's listener) are replayed as regular frees; replayed
managers' own moves do *not* trigger re-entrant frees (the replay
program is not adaptive), so replay is most faithful for non-moving
managers — a caveat the docstring of :class:`ReplayProgram` carries
into the API.
"""

from __future__ import annotations

from ..core.params import BoundParams
from ..obs.tape import ALLOC, FREE, EventTape
from .base import AdversaryProgram, ProgramView

__all__ = ["ReplayProgram", "replay_against"]


class ReplayProgram(AdversaryProgram):
    """Replays the alloc/free request stream of a recorded event tape.

    Not adaptive: the replayed manager's moves trigger no frees, and a
    recorded free whose object is not live in the replay is counted in
    :attr:`skipped_frees` instead of issued.
    """

    name = "replay"

    def __init__(self, tape: EventTape) -> None:
        #: ``(kind code, recorded object id, size)`` per alloc/free row,
        #: in row order.
        self.requests: list[tuple[int, int, int]] = []
        tape.walk({ALLOC: self._on_alloc, FREE: self._on_free})
        self.skipped_frees = 0

    def _on_alloc(self, seq, object_id, size, address, latency_ns) -> None:
        self.requests.append((ALLOC, object_id, size))

    def _on_free(self, seq, object_id, size, address) -> None:
        self.requests.append((FREE, object_id, size))

    def run(self, view: ProgramView) -> None:
        # Recorded object id -> the id of the object this replay made.
        id_map: dict[int, int] = {}
        for kind, object_id, size in self.requests:
            if kind == ALLOC:
                id_map[object_id] = view.allocate(size).object_id
            else:
                target = id_map.get(object_id)
                if target is not None and view.is_live(target):
                    view.free(target)
                else:
                    self.skipped_frees += 1


def replay_against(
    params: BoundParams,
    tape: EventTape,
    manager_name: str,
):
    """Convenience: replay a tape against a registry manager by name."""
    from ..mm.registry import create_manager
    from .driver import run_execution

    program = ReplayProgram(tape)
    manager = create_manager(manager_name, params)
    return run_execution(params, program, manager)
