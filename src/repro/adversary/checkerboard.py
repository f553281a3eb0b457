"""The folklore checkerboard adversary — a baseline for P_F.

The classic fragmentation argument taught before Robson's: fill the
heap with objects of size ``s``, free every other one, then ask for
objects of size ``2s`` (which fit in none of the holes), and repeat with
doubling sizes.  Against a non-moving manager this forces a waste factor
of about 1.5x per doubling round (much weaker than Robson's
``log n / 2``-ish factor, and weaker still than P_F under compaction),
which is exactly why it is the right baseline: the experiments show how
much of the paper's bound comes from the *construction*, not from
adversarial freedom per se.
"""

from __future__ import annotations

from ..core.params import BoundParams
from .base import AdversaryProgram, ProgramView

__all__ = ["CheckerboardProgram"]


class CheckerboardProgram(AdversaryProgram):
    """Fill, free-every-other, double the request size; repeat."""

    name = "checkerboard"

    def __init__(self, params: BoundParams, *, start_size: int = 1) -> None:
        if start_size < 1:
            raise ValueError("start_size must be at least 1")
        if start_size > params.max_object:
            raise ValueError("start_size exceeds the n contract")
        self.params = params
        self.start_size = start_size

    def run(self, view: ProgramView) -> None:
        moved_away: set[int] = set()

        def on_move(obj, old, new):  # noqa: ANN001 - listener signature
            # Keep it simple: drop moved objects, like P_F does.
            view.free(obj.object_id)
            moved_away.add(obj.object_id)

        view.set_move_listener(on_move)
        size = self.start_size
        survivors: list[int] = []
        while size <= self.params.max_object:
            # Fill the remaining live budget with `size`-word objects.
            batch: list[int] = []
            while view.live_words + size <= view.live_space_bound:
                obj = view.allocate(size)
                if view.is_live(obj.object_id):
                    batch.append(obj.object_id)
            # Free every other one (keep odd positions: the classic
            # checkerboard leaves holes exactly one object wide).
            for index, object_id in enumerate(batch):
                if index % 2 == 0 and view.is_live(object_id):
                    view.free(object_id)
                elif view.is_live(object_id):
                    survivors.append(object_id)
            size *= 2
        view.set_move_listener(None)
