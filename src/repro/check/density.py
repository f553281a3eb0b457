"""Density / association checker for :math:`P_F`'s Stage II.

Stage II's whole argument (§4.2) rests on the density discipline: the
program only frees associated objects while a chunk's live associated
weight stays at least ``2^(i - ell)`` words — density ``2^-ell`` of the
chunk — so the manager can never reclaim a chunk without paying to move
at least that much.  This checker verifies the discipline from two
angles:

**Offline** (:class:`DensityChecker`, pure event replay): at Stage II
step ``i``,

* every allocation is exactly ``2^(i+2)`` words (``stage2-size``);
* it fully covers at least three ``2^i``-chunks — the geometric fact
  Algorithm 1's association step depends on (``chunk-coverage``);
* the step allocates at most ``floor(x * M) / 2^(i+2)`` objects, ``x``
  recomputed from the parameters (``allocation-count``);
* the Stage I depth ``ell`` (largest Stage I step) is a feasible density
  exponent for the parameters (``infeasible-exponent``).

**Online** (:class:`DensityObserver`, riding the
:class:`~repro.adversary.pf_program.PFProgram` observer hooks, which see
the live :class:`~repro.adversary.association.AssociationMap`):

* *density floor*: a chunk whose live associated weight **decreased**
  during a density pass must still hold at least ``2^(i - ell)`` live
  words (``density-underflow``).  Note this is deliberately not the
  naive "every chunk is dense" check: a merge step can legitimately
  combine an empty chunk with a dense sibling, so chunks the pass did
  not free from carry no floor obligation — only the pass's own frees
  are constrained by Algorithm 1, line 13;
* *potential monotonicity*: the paper's potential ``u(t)`` (Claim 4.16)
  never decreases (``potential-decrease``);
* *association consistency*: the map's structural invariants hold at
  every hook (``association-inconsistent``).

A run checked offline only (``repro check`` on a recorded run) gets
the offline rules; ``--sanitize`` runs get both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.tape import ALLOC, STAGE
from .base import CheckContext, Checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.pf_program import PFProgram
    from ..heap.object_model import HeapObject
    from ..obs.tape import EventTape

__all__ = ["DensityChecker", "DensityObserver"]

_PF = "cohen-petrank-PF"


class DensityChecker(Checker):
    """Offline Stage-II geometry and allocation-ration replay."""

    name = "density"
    invariant = (
        "Stage II step i allocates at most floor(x*M)/2^(i+2) objects of "
        "exactly 2^(i+2) words, each fully covering >= 3 chunks of 2^i "
        "words; chunk density >= 2^-ell is preserved by density passes"
    )

    def __init__(self, context: CheckContext) -> None:
        super().__init__(context)
        self._stage1_max_step = -1
        self._stage2_step: int | None = None
        self._step_allocs = 0
        self._step_budget: int | None = None

    def check(self, tape: "EventTape") -> None:
        if self.context.program == _PF:
            tape.walk({STAGE: self._on_stage, ALLOC: self._on_alloc})
        self._close_step()

    # Stage bookkeeping ------------------------------------------------------

    def _on_stage(self, seq: int, program: str, stage: str, step: int,
                  label: str) -> None:
        if program != _PF:
            return
        self._close_step()
        if stage == "I":
            self._stage1_max_step = max(self._stage1_max_step, step)
        elif stage == "II":
            if self._stage2_step is None:
                self._check_exponent(seq)
            self._stage2_step = step
            self._step_budget = self._allocation_budget(step)

    def _check_exponent(self, seq: int) -> None:
        params = self._params()
        if params is None or self._stage1_max_step < 0:
            return
        from ..core.theorem1 import feasible_density_exponents

        feasible = feasible_density_exponents(params)
        if self._stage1_max_step not in feasible:
            self.report(
                "infeasible-exponent",
                f"Stage I depth ell={self._stage1_max_step} is not a "
                f"feasible density exponent at {params.describe()} "
                f"(feasible: {feasible})",
                seq=seq,
            )

    def _params(self) -> "object | None":
        """Reconstruct BoundParams when the manifest carried enough."""
        ctx = self.context
        if ctx.live_space is None or ctx.max_object is None \
                or ctx.divisor is None:
            return None
        from ..core.params import BoundParams

        try:
            return BoundParams(
                live_space=ctx.live_space,
                max_object=ctx.max_object,
                compaction_divisor=ctx.divisor,
            )
        except ValueError:
            return None

    def _allocation_budget(self, step: int) -> int | None:
        """Algorithm 1, line 14: ``floor(x * M) // 2^(step+2)`` objects."""
        params = self._params()
        if params is None or self._stage1_max_step < 0:
            return None
        from ..core.theorem1 import waste_factor_at

        ell = self._stage1_max_step
        try:
            h = waste_factor_at(params, ell)
        except ValueError:
            return None
        x = max(0.0, (1.0 - 2.0**-ell * h) / (ell + 1.0))
        return int(x * params.live_space) // (1 << (step + 2))

    # Stage II allocations ---------------------------------------------------

    def _on_alloc(self, seq: int, object_id: int, size: int, address: int,
                  latency_ns: int) -> None:
        step = self._stage2_step
        if step is None:
            return
        expected = 1 << (step + 2)
        if size != expected:
            self.report(
                "stage2-size",
                f"Stage II step {step} allocated object {object_id} of "
                f"{size} words; Algorithm 1 allocates exactly "
                f"2^(i+2) = {expected}",
                seq=seq,
            )
            return
        self._step_allocs += 1
        if self._step_budget is not None and self._step_allocs > self._step_budget:
            self.report(
                "allocation-count",
                f"Stage II step {step} allocated {self._step_allocs} objects, "
                f"over the ration of {self._step_budget}",
                seq=seq,
            )
        chunk = 1 << step
        first_covered = -(-address // chunk)  # ceil
        last_covered = (address + size) // chunk
        if last_covered - first_covered < 3:
            self.report(
                "chunk-coverage",
                f"Stage II object {object_id} at address "
                f"{address} fully covers only "
                f"{max(0, last_covered - first_covered)} chunks of {chunk} "
                "words (needs >= 3)",
                seq=seq,
            )

    def _close_step(self) -> None:
        self._step_allocs = 0
        self._step_budget = None


class DensityObserver:
    """Online hook rider re-checking the association map each Stage-II step.

    Implements the :class:`~repro.adversary.pf_program.PFProgram`
    observer protocol and reports through a :class:`DensityChecker` (so
    online and offline findings land in one report).  It may be chained
    after another observer via ``wrapped``.
    """

    def __init__(self, checker: Checker, *, wrapped: object | None = None) -> None:
        self.checker = checker
        self.wrapped = wrapped
        self._last_potential: int | None = None
        self._weights_before_pass: dict[object, int] = {}

    # Helpers ----------------------------------------------------------------

    def _forward(self, hook: str, *args: object) -> None:
        if self.wrapped is not None:
            method = getattr(self.wrapped, hook, None)
            if method is not None:
                method(*args)

    @staticmethod
    def _live_weight_twice(program: "PFProgram", chunk: object) -> int:
        total = 0
        for object_id, fraction in program.association.chunk_members(
            chunk  # type: ignore[arg-type]
        ).items():
            entry = program.association.entry(object_id)
            if entry is not None and entry.live:
                total += fraction * entry.size
        return total

    def _check_structure(self, program: "PFProgram") -> None:
        try:
            program.association.check_invariants()
        except AssertionError as exc:
            self.checker.report(
                "association-inconsistent",
                f"association map invariants failed: {exc}",
            )

    def _check_potential(self, program: "PFProgram") -> None:
        from ..adversary.potential import potential_twice

        value = potential_twice(
            program.association,
            program.current_exponent,
            program.density_exponent,
            program.params.max_object,
        )
        if self._last_potential is not None and value < self._last_potential:
            self.checker.report(
                "potential-decrease",
                f"potential 2u decreased: {self._last_potential} -> {value} "
                f"(step exponent {program.current_exponent})",
            )
        self._last_potential = value

    # PFProgram hooks --------------------------------------------------------

    def on_stage1_step(self, i: int, offset: int) -> None:
        self._forward("on_stage1_step", i, offset)

    def on_association_initialized(self, program: "PFProgram") -> None:
        self._check_structure(program)
        self._check_potential(program)
        self._forward("on_association_initialized", program)

    def on_stage2_step(self, i: int, program: "PFProgram") -> None:
        # Fires after the merge, before the density pass: snapshot the
        # live weights the pass is about to free from.
        self._weights_before_pass = {
            chunk: self._live_weight_twice(program, chunk)
            for chunk in program.association.chunks()
        }
        self._check_structure(program)
        self._check_potential(program)
        self._forward("on_stage2_step", i, program)

    def after_density_pass(self, i: int, program: "PFProgram") -> None:
        threshold2 = 1 << (i - program.density_exponent + 1)
        for chunk in program.association.chunks():
            before = self._weights_before_pass.get(chunk)
            if before is None:
                continue
            after = self._live_weight_twice(program, chunk)
            if after < before and after < threshold2:
                self.checker.report(
                    "density-underflow",
                    f"density pass at step {i} drained chunk {chunk} to "
                    f"{after}/2 live words, below the floor "
                    f"2^(i - ell) = {threshold2}/2",
                )
        self._weights_before_pass = {}
        self._check_structure(program)
        self._check_potential(program)
        self._forward("after_density_pass", i, program)

    def after_allocation(
        self, i: int, obj: "HeapObject", program: "PFProgram"
    ) -> None:
        self._check_potential(program)
        self._forward("after_allocation", i, obj, program)

    def on_finish(self, program: "PFProgram") -> None:
        self._check_structure(program)
        self._check_potential(program)
        self._forward("on_finish", program)
