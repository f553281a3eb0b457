"""Program-model checker: the adversary must itself obey P(M, n).

The paper's lower bounds only count because the adversarial program is a
*legal* member of the program family P(M, n) (§2.2): it never holds more
than ``M`` live words, never allocates an object larger than ``n``, and
— for the constructions :math:`P_F` and :math:`P_R` — only allocates
power-of-two sizes.  This checker re-derives all of that from the event
stream, plus the stage machine:

* :math:`P_F` runs Stage I steps ``0 .. ell`` consecutively, then Stage
  II steps ``2*ell .. log2(n) - 2`` consecutively, with the hand-off
  labelled ``"stage I -> stage II"`` (Algorithm 1);
* :math:`P_R` runs steps ``0 .. max_step`` consecutively.

Rules: ``oversize``, ``non-power-of-two``, ``live-overflow``,
``stage-regression``, ``stage-skip``, ``stage-order``,
``incomplete-run``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.tape import ALLOC, FREE, STAGE
from .base import CheckContext, Checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tape import EventTape

__all__ = ["ProgramModelChecker"]

#: Program name of the paper's Stage I/II construction.
_PF = "cohen-petrank-PF"
#: Program name of the Robson-style construction.
_ROBSON = "robson-PR"


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


class ProgramModelChecker(Checker):
    """Membership of the program family P(M, n), replayed from events."""

    name = "program-model"
    invariant = (
        "live words <= M at all times; every object size is <= n (and a "
        "power of two for P_F / P_R); stage transitions follow the "
        "construction's schedule"
    )

    def __init__(self, context: CheckContext) -> None:
        super().__init__(context)
        self._live_words = 0
        self._sizes: dict[int, int] = {}
        # Stage machine state.
        self._last_stage: str | None = None
        self._last_step = -1
        self._stage1_max_step = -1
        self._stage2_seen = False
        self._stage2_last_step = -1

    def check(self, tape: "EventTape") -> None:
        tape.walk({ALLOC: self._on_alloc, FREE: self._on_free,
                   STAGE: self._on_stage})
        self._end_of_stream()

    # Row handlers -----------------------------------------------------------

    def _on_alloc(self, seq: int, object_id: int, size: int, address: int,
                  latency_ns: int) -> None:
        n = self.context.max_object
        if n is not None and size > n:
            self.report(
                "oversize",
                f"object {object_id} of {size} words exceeds n={n}",
                seq=seq,
            )
        if self.context.power_of_two_sizes and not _is_power_of_two(size):
            self.report(
                "non-power-of-two",
                f"object {object_id} of {size} words: "
                f"{self.context.program} allocates power-of-two sizes only",
                seq=seq,
            )
        self._live_words += max(size, 0)
        self._sizes[object_id] = size
        m = self.context.live_space
        if m is not None and self._live_words > m:
            self.report(
                "live-overflow",
                f"live space reaches {self._live_words} words > M={m} after "
                f"allocating object {object_id}",
                seq=seq,
            )

    def _on_free(self, seq: int, object_id: int, size: int,
                 address: int) -> None:
        # Use the recorded size so a corrupted Free cannot hide an
        # overflow by under-reporting (the shadow-heap checker flags the
        # metadata mismatch itself).
        recorded = self._sizes.pop(object_id, size)
        self._live_words -= max(recorded, 0)

    # Stage machine ----------------------------------------------------------

    def _on_stage(self, seq: int, program: str, stage: str, step: int,
                  label: str) -> None:
        if program == _PF:
            self._on_pf_stage(seq, program, stage, step, label)
        elif program == _ROBSON:
            self._on_robson_stage(seq, program, stage, step)
        # Other programs carry no stage contract.

    def _expect_consecutive(self, seq: int, program: str, stage: str,
                            step: int, expected: int) -> None:
        if step == expected:
            return
        rule = "stage-regression" if step < expected else "stage-skip"
        self.report(
            rule,
            f"{program} stage {stage} reached step {step} "
            f"but step {expected} was expected next",
            seq=seq,
        )

    def _on_pf_stage(self, seq: int, program: str, stage: str, step: int,
                     label: str) -> None:
        if stage == "I":
            if self._stage2_seen:
                self.report(
                    "stage-order",
                    "Stage I transition after Stage II began",
                    seq=seq,
                )
                return
            expected = 0 if self._last_stage is None else self._last_step + 1
            self._expect_consecutive(seq, program, stage, step, expected)
            self._stage1_max_step = max(self._stage1_max_step, step)
        elif stage == "II":
            if not self._stage2_seen:
                # Algorithm 1: Stage II starts at step 2*ell, where ell
                # is Stage I's final step; null steps ell+1 .. 2*ell-1
                # are silent.
                if self._stage1_max_step < 0:
                    self.report(
                        "stage-order",
                        "Stage II began with no Stage I at all",
                        seq=seq,
                    )
                else:
                    self._expect_consecutive(seq, program, stage, step,
                                             2 * self._stage1_max_step)
                if label != "stage I -> stage II":
                    self.report(
                        "stage-order",
                        "the first Stage II transition must carry the "
                        f"'stage I -> stage II' label, got {label!r}",
                        seq=seq,
                    )
            else:
                self._expect_consecutive(seq, program, stage, step,
                                         self._last_step + 1)
            self._stage2_seen = True
            self._stage2_last_step = step
        else:
            self.report(
                "stage-order",
                f"unknown P_F stage {stage!r}",
                seq=seq,
            )
        self._last_stage = stage
        self._last_step = step

    def _on_robson_stage(self, seq: int, program: str, stage: str,
                         step: int) -> None:
        if stage != "robson":
            self.report(
                "stage-order",
                f"unknown P_R stage {stage!r}",
                seq=seq,
            )
            return
        expected = 0 if self._last_stage is None else self._last_step + 1
        self._expect_consecutive(seq, program, stage, step, expected)
        self._last_stage = stage
        self._last_step = step

    def _end_of_stream(self) -> None:
        n = self.context.max_object
        if (
            self.context.program == _PF
            and self._stage2_seen
            and n is not None
            and _is_power_of_two(n)
        ):
            last = n.bit_length() - 3  # log2(n) - 2
            if self._stage2_last_step != last:
                self.report(
                    "incomplete-run",
                    f"P_F Stage II ended at step {self._stage2_last_step} "
                    f"but log2(n) - 2 = {last}",
                )
