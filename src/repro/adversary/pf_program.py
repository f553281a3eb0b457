"""The paper's bad program :math:`P_F` (Algorithm 1).

Two stages:

**Stage I** (steps ``0 .. ell``): Robson's program with ghost handling —
see :mod:`repro.adversary.robson_program`.  Steps ``ell+1 .. 2*ell - 1``
are *null steps* (nothing happens; they only let the chunk size outgrow
the largest Stage-I object by the density factor ``2^ell``).  At the end
of the stage (line 9) every surviving live object and ghost is
associated with the chunk of ``D(2*ell - 1)`` containing its
f_ell-occupying word.

**Stage II** (steps ``i = 2*ell .. log2(n) - 2``): at each step the
chunk partition coarsens (associations merge), then

* *density pass* (line 13): from every chunk, free as many live
  associated objects as possible while the chunk's associated weight
  stays at least ``2^(i - ell)`` — density ``2^-ell``, chosen so that
  evacuating a chunk costs the manager more budget than the allocation
  reusing it earns back.  Freeing the half of a border object
  re-associates it whole with the chunk holding its other half, which is
  then re-evaluated;
* *allocation pass* (line 14): allocate ``floor(x * M / 2^(i+2))``
  objects of ``2^(i+2)`` words (stopping at the live-space cap), where
  ``x = (1 - 2^-ell * h) / (ell + 1)`` is the paper's per-step
  allocation ration.  Each placed object fully covers at least three
  chunks; the first and third get the object's halves, the middle joins
  the set ``E``, and any previous (residue) associations on the three
  are cleared.

Whenever the manager moves an object, the program frees it immediately;
in Stage I it becomes a ghost, in Stage II its association is kept as a
residue (the chunk it occupied stays "used" forever, which is what the
potential function counts).
"""

from __future__ import annotations

from typing import Any

from ..core.params import BoundParams
from ..core.theorem1 import feasible_density_exponents, lower_bound, waste_factor_at
from ..heap.chunks import ChunkId, ChunkPartition
from ..heap.object_model import HeapObject
from ..obs.events import EventBus
from .association import WHOLE, AssociationMap
from .base import AdversaryProgram, ProgramView
from .ghosts import GhostRegistry
from .robson_program import RobsonEngine

__all__ = ["PFProgram"]


class PFProgram(AdversaryProgram):
    """Cohen & Petrank's two-stage adversary."""

    name = "cohen-petrank-PF"

    def __init__(
        self,
        params: BoundParams,
        *,
        density_exponent: int | None = None,
        observer: Any = None,
        bus: EventBus | None = None,
    ) -> None:
        """Build the adversary for one parameter point.

        ``density_exponent`` (the paper's ``ell``) defaults to the value
        maximizing the Theorem-1 bound.  ``observer`` may define any of
        the hook methods ``on_stage1_step(i, offset)``,
        ``on_association_initialized(program)``,
        ``on_stage2_step(i, program)``, ``after_density_pass(i, program)``,
        ``after_allocation(i, obj, program)`` and ``on_finish(program)``;
        the invariant-checking tests ride these hooks.  ``bus`` is the
        optional telemetry bus: every Stage I/II round boundary emits a
        :class:`~repro.obs.events.StageTransition` through it.
        """
        if params.compaction_divisor is None:
            raise ValueError(
                "P_F targets c-partial managers; give params a finite c "
                "(use RobsonProgram against non-moving managers)"
            )
        self.params = params
        feasible = feasible_density_exponents(params)
        if not feasible:
            raise ValueError(
                f"no feasible density exponent at {params.describe()}; "
                "n is too small relative to c for Stage II to run"
            )
        if density_exponent is None:
            best = lower_bound(params).density_exponent
            density_exponent = best if best is not None else feasible[-1]
        if density_exponent not in feasible:
            raise ValueError(
                f"density exponent {density_exponent} infeasible; choose "
                f"from {feasible}"
            )
        self.density_exponent = density_exponent
        #: The Theorem-1 waste factor at this ``ell`` (the paper's ``h``).
        self.waste_target = waste_factor_at(params, density_exponent)
        #: Algorithm 1's per-step allocation ration ``x``.
        self.x_fraction = max(
            0.0,
            (1.0 - 2.0**-density_exponent * self.waste_target)
            / (density_exponent + 1.0),
        )
        self.observer = observer
        self.bus = bus
        # Execution state (populated by run()).
        self.ghosts = GhostRegistry()
        self.association = AssociationMap()
        self.stage = 0
        self.current_exponent = 0
        self._view: ProgramView | None = None
        self._engine: RobsonEngine | None = None

    # Observer plumbing ------------------------------------------------------

    def _notify(self, hook: str, *args: Any) -> None:
        method = getattr(self.observer, hook, None)
        if method is not None:
            method(*args)

    def _emit_stage(self, stage: str, step: int, label: str = "") -> None:
        if self.bus is not None:
            self.bus.emit_stage(self.name, stage, step, label)

    # Move handling (Definition 4.1 + Stage-II residue rule) -----------------

    def _on_move(self, obj: HeapObject, old: int, new: int) -> None:
        view = self._view
        assert view is not None
        view.free(obj.object_id)
        if self.stage == 1:
            assert self._engine is not None
            self._engine.notify_freed(obj.object_id)
            self.ghosts.record(obj)
        else:
            # Stage II: association persists as a residue.
            self.association.mark_residue(obj.object_id)

    # Stage I -------------------------------------------------------------------

    def _run_stage1(self, view: ProgramView) -> None:
        self.stage = 1
        engine = RobsonEngine(view, self.ghosts)
        self._engine = engine
        self._emit_stage("I", 0, "stage I begin")
        engine.initial_step()
        for i in range(1, self.density_exponent + 1):
            self._emit_stage("I", i)
            engine.step(i)
            self._notify("on_stage1_step", i, engine.offset)
        # Null steps ell+1 .. 2*ell-1: nothing happens.
        self.current_exponent = 2 * self.density_exponent - 1

    def _initialize_association(self) -> None:
        """Algorithm 1, line 9: associate survivors with ``D(2*ell-1)``."""
        engine = self._engine
        assert engine is not None
        exponent = 2 * self.density_exponent - 1
        chunk_size = 1 << exponent
        for object_id, address, size in engine.live_items():
            word = engine.occupying_word(address, size)
            chunk = ChunkId(exponent, word // chunk_size)
            self.association.associate_whole(object_id, size, chunk)
        for ghost in self.ghosts:
            word = engine.occupying_word(ghost.address, ghost.size)
            chunk = ChunkId(exponent, word // chunk_size)
            self.association.associate_whole(ghost.object_id, ghost.size, chunk)
            self.association.mark_residue(ghost.object_id)
        self._notify("on_association_initialized", self)

    # Stage II ------------------------------------------------------------------

    def _live_weight_twice(self, chunk: ChunkId) -> int:
        """Doubled associated weight of *live* objects on ``chunk``.

        The density the program defends is live space: §3's argument is
        that reusing a chunk forces the manager to move the live words
        residing on it.  Residues (compacted-and-freed objects) still
        count toward the potential, but they are free space — counting
        them toward the keep-threshold would let the program over-free
        and hand the manager evacuated chunks for nothing.
        """
        total = 0
        for object_id, fraction in self.association.chunk_members(chunk).items():
            entry = self.association.entry(object_id)
            if entry is not None and entry.live:
                total += fraction * entry.size
        return total

    def _density_pass(self, i: int) -> None:
        """Algorithm 1, line 13."""
        view = self._view
        assert view is not None
        # Doubled threshold: keep live sum |o| >= 2^(i - ell).
        threshold2 = 1 << (i - self.density_exponent + 1)
        pending = list(self.association.chunks())
        queued = set(pending)
        while pending:
            chunk = pending.pop()
            queued.discard(chunk)
            live_weight2 = self._live_weight_twice(chunk)
            members = sorted(
                self.association.chunk_members(chunk).items(),
                key=lambda item: -self.association.entry(item[0]).size,  # type: ignore[union-attr]
            )
            for object_id, fraction in members:
                entry = self.association.entry(object_id)
                if entry is None or not entry.live:
                    continue  # residues cannot be freed
                if not view.is_live(object_id):
                    continue
                contribution = fraction * entry.size
                if live_weight2 - contribution < threshold2:
                    continue  # keeping the live-density floor
                if fraction == WHOLE:
                    view.free(object_id)
                    self.association.remove_object(object_id)
                else:
                    other = self.association.transfer_half(object_id, chunk)
                    if other not in queued:
                        pending.append(other)
                        queued.add(other)
                live_weight2 -= contribution

    def _allocation_pass(self, i: int) -> None:
        """Algorithm 1, line 14."""
        view = self._view
        assert view is not None
        object_size = 1 << (i + 2)
        count = int(self.x_fraction * self.params.live_space) // object_size
        partition = ChunkPartition(i)
        for _ in range(count):
            if view.live_words + object_size > self.params.live_space:
                break
            obj = view.allocate(object_size)
            if not view.is_live(obj.object_id):
                continue  # moved-and-freed during its own request
            covered = partition.fully_covered_by(obj.address, obj.end)
            assert len(covered) >= 3, (
                "a 4*2^i object must fully cover at least three 2^i chunks"
            )
            first, middle, third = covered[0], covered[1], covered[2]
            for chunk in (first, middle, third):
                self.association.clear_chunk(chunk)
            self.association.associate_halves(
                obj.object_id, object_size, first, third
            )
            self.association.mark_middle(middle)
            self._notify("after_allocation", i, obj, self)

    def _run_stage2(self, view: ProgramView) -> None:
        self.stage = 2
        first_step = 2 * self.density_exponent
        last_step = self.params.log_n - 2
        for i in range(first_step, last_step + 1):
            self._emit_stage(
                "II", i, "stage I -> stage II" if i == first_step else "",
            )
            self.current_exponent = i
            self.association.merge_step()
            self._notify("on_stage2_step", i, self)
            self._density_pass(i)
            self._notify("after_density_pass", i, self)
            self._allocation_pass(i)

    # Entry point -----------------------------------------------------------------

    def run(self, view: ProgramView) -> None:
        self._view = view
        view.set_move_listener(self._on_move)
        try:
            self._run_stage1(view)
            self._initialize_association()
            self._run_stage2(view)
        finally:
            view.set_move_listener(None)
            self._notify("on_finish", self)
