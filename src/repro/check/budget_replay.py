"""Budget replay checker: re-derive the c-partial ledger from raw events.

The live ledger (:class:`~repro.mm.budget.CompactionBudget`) is the
enforcement point for ``moved <= allocated / c``; this checker rebuilds
the same ledger from :class:`~repro.obs.events.BudgetCharge` /
:class:`~repro.obs.events.Alloc` / :class:`~repro.obs.events.Move`
events using exact integer arithmetic only — the inequality is checked
as ``moved * num <= allocated * den`` where ``c = num / den`` exactly
(floats are binary rationals, so :func:`float.as_integer_ratio` loses
nothing) — and flags:

* any instant where the replayed ledger violates the c-partial (or
  B-bounded) inequality (``overspent``);
* a ``BudgetCharge`` whose ``remaining`` drifts from the exactly
  recomputed remaining budget (``ledger-drift``) — the live ledger
  publishes a float for display, so the comparison allows one part in
  10^9 of relative slack, far below any word-sized discrepancy.  The
  float's exact ratio (:meth:`float.as_integer_ratio`) is
  cross-multiplied with the replayed ledger's, so the comparison is
  integer arithmetic too; a non-finite ``remaining`` (which has no
  ratio) is drift;
* disagreement between the charge stream and the heap-event stream:
  every move charge must be followed by its ``Move`` of the same size,
  every alloc charge by its ``Alloc`` (``charge-mismatch``), and the
  end-of-stream totals must agree (``total-mismatch``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..mm.budget import divisor_as_integer_ratio
from ..obs.tape import ALLOC, CHARGE, MOVE
from .base import CheckContext, Checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tape import EventTape

__all__ = ["BudgetReplayChecker"]

#: ``remaining`` may differ from the exact replay by one part in this
#: many — display rounding only, never a whole word.
_REMAINING_SLACK = 10**9


class BudgetReplayChecker(Checker):
    """Exact-integer replay of the compaction budget."""

    name = "budget-replay"
    invariant = (
        "at every instant, moved_words * c_num <= allocated_words * c_den "
        "(c-partial) or moved_words <= B (B-bounded), replayed exactly"
    )

    def __init__(self, context: CheckContext) -> None:
        super().__init__(context)
        if context.divisor is not None:
            self._num, self._den = divisor_as_integer_ratio(context.divisor)
        else:
            self._num, self._den = 0, 1
        # Replayed ledger (exact integers throughout).
        self._allocated = 0
        self._moved = 0
        # Heap-event-side totals, cross-checked at the end of the stream.
        self._alloc_words = 0
        self._move_words = 0
        # Charges not yet matched by their heap event (FIFO per reason).
        self._pending_alloc: deque[tuple[int, int]] = deque()
        self._pending_move: deque[tuple[int, int]] = deque()

    def check(self, tape: "EventTape") -> None:
        tape.walk({CHARGE: self._on_charge, ALLOC: self._on_alloc,
                   MOVE: self._on_move})
        self._end_of_stream()

    # Exact inequality -------------------------------------------------------

    def _within_budget(self) -> bool:
        if self.context.divisor is not None:
            return self._moved * self._num <= self._allocated * self._den
        if self.context.absolute_limit is not None:
            return self._moved <= self.context.absolute_limit
        # No budget model at all.  With a manifest, that *means* no
        # compaction is allowed (the Robson regime); with no manifest the
        # model is simply unknown and the inequality cannot be judged.
        return self._moved == 0 if self.context.budget_known else True

    def _exact_remaining(self) -> tuple[int, int]:
        """The replayed remaining budget as an exact ``(num, den)`` pair."""
        if self.context.divisor is not None:
            return self._allocated * self._den - self._moved * self._num, self._num
        if self.context.absolute_limit is not None:
            return self.context.absolute_limit - self._moved, 1
        return 0, 1

    # Row handlers -----------------------------------------------------------

    def _on_alloc(self, seq: int, object_id: int, size: int, address: int,
                  latency_ns: int) -> None:
        self._match(seq, "alloc", self._pending_alloc, size)
        self._alloc_words += size

    def _on_move(self, seq: int, object_id: int, size: int, old_address: int,
                 new_address: int) -> None:
        self._match(seq, "move", self._pending_move, size)
        self._move_words += size

    def _on_charge(self, seq: int, reason: str, words: int,
                   remaining: float) -> None:
        if words <= 0:
            self.report(
                "bad-charge",
                f"budget charge of {words} words (must be positive)",
                seq=seq,
            )
            return
        if reason == "alloc":
            self._allocated += words
            self._pending_alloc.append((seq, words))
        elif reason == "move":
            self._moved += words
            self._pending_move.append((seq, words))
            if not self._within_budget():
                self.report(
                    "overspent",
                    f"replayed ledger violates the budget: "
                    f"moved={self._moved}, allocated={self._allocated}, "
                    f"c={self.context.divisor}, "
                    f"B={self.context.absolute_limit}",
                    seq=seq,
                )
        else:
            self.report(
                "bad-charge",
                f"unknown budget-charge reason {reason!r}",
                seq=seq,
            )
            return
        if self.context.budget_known:
            self._check_remaining(seq, reason, words, remaining)

    def _check_remaining(self, seq: int, reason: str, words: int,
                         remaining: float) -> None:
        """The live ledger's float ``remaining`` must track the exact one.

        With the exact value ``e = e_num / e_den`` and the reported one
        ``r = r_num / r_den``, ``|r - e| > max(|e|, 1) / 10**9`` is
        ``10**9 * |r_num * e_den - e_num * r_den| > r_den * max(|e_num|,
        e_den)`` once both sides are multiplied by ``10**9 * r_den * e_den``.
        """
        e_num, e_den = self._exact_remaining()
        try:
            r_num, r_den = remaining.as_integer_ratio()
        except (OverflowError, ValueError):  # infinite or NaN: no ratio
            drift = True
        else:
            drift = (_REMAINING_SLACK * abs(r_num * e_den - e_num * r_den)
                     > r_den * max(abs(e_num), e_den))
        if drift:
            self.report(
                "ledger-drift",
                f"live ledger reports remaining={remaining!r} after the "
                f"{reason} charge of {words}, but exact replay "
                f"gives {e_num / e_den!r} "  # lint: float-ok
                f"(allocated={self._allocated}, moved={self._moved})",
                seq=seq,
            )

    def _match(self, seq: int, reason: str,
               pending: deque[tuple[int, int]], size: int) -> None:
        """Pair a heap event with its preceding charge of the same words."""
        if not pending:
            self.report(
                "charge-mismatch",
                f"{reason} of {size} words with no preceding budget charge",
                seq=seq,
            )
            return
        charge_seq, charged = pending.popleft()
        if charged != size:
            self.report(
                "charge-mismatch",
                f"{reason} of {size} words but the matching budget charge "
                f"(event #{charge_seq}) was for {charged}",
                seq=seq,
            )

    def _end_of_stream(self) -> None:
        if self._allocated != self._alloc_words:
            self.report(
                "total-mismatch",
                f"budget accrued {self._allocated} allocated words but Alloc "
                f"events total {self._alloc_words}",
            )
        if self._moved != self._move_words:
            self.report(
                "total-mismatch",
                f"budget spent {self._moved} moved words but Move events "
                f"total {self._move_words}",
            )
        if not self._within_budget():  # pragma: no cover - caught per charge
            self.report(
                "overspent",
                f"final ledger violates the budget: moved={self._moved}, "
                f"allocated={self._allocated}",
            )
