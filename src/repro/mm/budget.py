"""Compaction-budget accounting — the ``c``-partial model, enforced.

The paper (following Bendersky & Petrank) defines a *c-partial memory
manager* as one that, at every point of the execution, has moved at most
``s / c`` words where ``s`` is the total space allocated so far.  The
budget therefore *accrues* with allocation and is *spent* by moves; it
never goes negative.

:class:`CompactionBudget` is the single authority on this rule.  The
driver charges allocations into it and every move must pass through
:meth:`charge_move`, which raises
:class:`~repro.heap.errors.CompactionBudgetExceeded` on violation — so a
manager physically cannot overspend, and the property-based tests merely
confirm the ledger arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..heap.errors import CompactionBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import EventBus
    from ..obs.trace import Tracer

__all__ = [
    "CompactionBudget",
    "AbsoluteBudget",
    "BudgetSnapshot",
    "divisor_as_integer_ratio",
]


def divisor_as_integer_ratio(divisor: "float | int") -> tuple[int, int]:
    """The divisor's exact ``(numerator, denominator)`` pair.

    Floats are binary rationals, so ``c`` as given (even a non-integral
    one like ``12.5``) has an exact integer ratio; every enforcement
    comparison below cross-multiplies with it instead of dividing, so
    boundary moves are never admitted or denied by float rounding.
    """
    numerator, denominator = divisor.as_integer_ratio()
    if numerator <= 0 or denominator <= 0:
        raise ValueError(f"divisor must be positive, got {divisor!r}")
    return numerator, denominator


@dataclass(frozen=True)
class BudgetSnapshot:
    """An immutable view of the ledger, for traces and tests.

    ``divisor`` is set for the fractional (c-partial) model;
    ``absolute_limit`` for the B-bounded model.  Exactly one is not None
    unless the manager has no budget at all.
    """

    allocated_words: int
    moved_words: int
    divisor: float | None
    absolute_limit: int | None = None

    @property
    def earned(self) -> float:
        """Total budget available so far (``allocated / c`` or ``B``).

        Display only — enforcement goes through :meth:`within_budget`,
        which compares exactly.
        """
        if self.divisor is not None:
            return self.allocated_words / self.divisor  # lint: float-ok
        if self.absolute_limit is not None:
            return float(self.absolute_limit)  # lint: float-ok
        return 0.0  # lint: float-ok

    @property
    def remaining(self) -> float:
        """Budget words still spendable (display only; see :meth:`within_budget`)."""
        return self.earned - self.moved_words

    def within_budget(self) -> bool:
        """The ledger inequality, checked exactly.

        ``moved <= allocated / c`` becomes ``moved * num <= allocated *
        den`` where ``c = num / den`` exactly; the B-bounded model is
        already integral.  No budget at all means no moves are legal.
        """
        if self.divisor is not None:
            numerator, denominator = divisor_as_integer_ratio(self.divisor)
            return self.moved_words * numerator <= self.allocated_words * denominator
        if self.absolute_limit is not None:
            return self.moved_words <= self.absolute_limit
        return self.moved_words == 0


class CompactionBudget:
    """The mutable ledger enforcing ``moved <= allocated / c``.

    Parameters
    ----------
    divisor:
        The paper's ``c``.  ``None`` means *no compaction allowed*: every
        move attempt fails (the Robson regime).
    observer:
        Optional telemetry bus; every successful charge emits a
        :class:`~repro.obs.events.BudgetCharge` with the remaining
        budget, so reports can plot the ledger draining.
    """

    def __init__(self, divisor: float | None,
                 observer: "EventBus | None" = None) -> None:
        if divisor is not None and divisor <= 1:
            raise ValueError("compaction divisor c must exceed 1")
        self._divisor = divisor
        # Exact integer form of c for the enforcement comparisons.
        if divisor is None:
            self._num, self._den = 0, 1
        else:
            self._num, self._den = divisor_as_integer_ratio(divisor)
        self._allocated = 0
        self._moved = 0
        self.observer = observer
        #: Fine-grained span tracer (the driver sets this only when
        #: per-operation tracing is on; None costs one comparison).
        self.tracer: "Tracer | None" = None

    # Accrual -----------------------------------------------------------------

    def charge_allocation(self, words: int) -> None:
        """Record ``words`` of program allocation (accrues budget)."""
        if words <= 0:
            raise ValueError("allocation size must be positive")
        self._allocated += words
        if self.observer is not None:
            self.observer.emit_charge("alloc", words, self.remaining)

    # Spending ----------------------------------------------------------------

    @property
    def divisor(self) -> float | None:
        """The configured ``c`` (``None`` = no compaction)."""
        return self._divisor

    @property
    def allocated_words(self) -> int:
        """The paper's ``s`` — total words allocated so far."""
        return self._allocated

    @property
    def moved_words(self) -> int:
        """The paper's ``q`` — total words moved so far."""
        return self._moved

    @property
    def remaining(self) -> float:
        """Budget words still spendable right now (display only).

        Telemetry and reports want a scalar; enforcement never touches
        this — :meth:`can_move` compares exactly.
        """
        if self._divisor is None:
            return 0.0  # lint: float-ok
        return self._allocated / self._divisor - self._moved  # lint: float-ok

    def can_move(self, words: int) -> bool:
        """Whether a move of ``words`` fits the budget at this instant.

        Exact integer cross-multiplication: ``moved + words <=
        allocated / c`` iff ``(moved + words) * num <= allocated * den``
        with ``c = num / den``, so boundary moves are decided exactly.
        """
        if words <= 0:
            raise ValueError("move size must be positive")
        if self._divisor is None:
            return False
        return (self._moved + words) * self._num <= self._allocated * self._den

    def charge_move(self, words: int) -> None:
        """Spend budget for a move, raising if it would overdraw."""
        tracer = self.tracer
        if tracer is not None:
            span = tracer.begin_unchecked("budget.move", {"words": words})
        if not self.can_move(words):
            if tracer is not None:
                span.set(rejected=True)
                tracer.end(span)
            raise CompactionBudgetExceeded(
                f"move of {words} words exceeds budget: moved={self._moved}, "
                f"allocated={self._allocated}, c={self._divisor}"
            )
        self._moved += words
        if self.observer is not None:
            self.observer.emit_charge("move", words, self.remaining)
        if tracer is not None:
            span.set(moved=self._moved)
            tracer.end(span)

    def snapshot(self) -> BudgetSnapshot:
        """An immutable copy of the ledger."""
        return BudgetSnapshot(self._allocated, self._moved, self._divisor)

    def check_invariant(self) -> None:
        """Assert the c-partial inequality holds, exactly (tests call this)."""
        if self._divisor is None:
            assert self._moved == 0, "moves happened with no budget"
        else:
            assert self._moved * self._num <= self._allocated * self._den, (
                f"c-partial contract violated: moved={self._moved} > "
                f"{self._allocated}/{self._divisor}"
            )


class AbsoluteBudget:
    """The B-bounded variant: at most ``limit_words`` moved, ever.

    Bendersky & Petrank's second model (and a natural description of a
    real pause-time budget): the manager's *total* compaction over the
    whole execution is capped by an absolute number of words, however
    much the program allocates.  Duck-types :class:`CompactionBudget`,
    so the driver and every manager work unchanged.

    The theory connection (see :mod:`repro.core.absolute`): on any
    execution whose total allocation is ``s``, a B-bounded manager is
    ``(s / B)``-partial, so Theorem 1 applies with ``c = s / B`` — and
    since the paper's adversary allocates at least ``M`` words in its
    very first step, ``c = M / B`` is always a sound instantiation.
    """

    def __init__(self, limit_words: int,
                 observer: "EventBus | None" = None) -> None:
        if limit_words < 0:
            raise ValueError("limit_words must be non-negative")
        self._limit = limit_words
        self._allocated = 0
        self._moved = 0
        self.observer = observer
        #: Fine-grained span tracer (duck-typing CompactionBudget).
        self.tracer: "Tracer | None" = None

    @property
    def divisor(self) -> float | None:
        """No fractional divisor: this ledger is absolute.

        Managers that *require* a finite ``c`` (the BP collector) reject
        an absolute ledger via this None, which is the correct reading:
        their construction is parameterized by ``c``.
        """
        return None

    @property
    def limit_words(self) -> int:
        """The absolute cap ``B``."""
        return self._limit

    @property
    def allocated_words(self) -> int:
        """Total words allocated so far."""
        return self._allocated

    @property
    def moved_words(self) -> int:
        """Total words moved so far."""
        return self._moved

    @property
    def remaining(self) -> float:
        """Words of budget left."""
        return float(self._limit - self._moved)  # lint: float-ok

    def charge_allocation(self, words: int) -> None:
        """Record an allocation (no accrual in this model)."""
        if words <= 0:
            raise ValueError("allocation size must be positive")
        self._allocated += words
        if self.observer is not None:
            self.observer.emit_charge("alloc", words, self.remaining)

    def can_move(self, words: int) -> bool:
        """Whether a move of ``words`` fits under the absolute cap."""
        if words <= 0:
            raise ValueError("move size must be positive")
        return self._moved + words <= self._limit

    def charge_move(self, words: int) -> None:
        """Spend budget, raising on overdraft."""
        tracer = self.tracer
        if tracer is not None:
            span = tracer.begin_unchecked("budget.move", {"words": words})
        if not self.can_move(words):
            if tracer is not None:
                span.set(rejected=True)
                tracer.end(span)
            raise CompactionBudgetExceeded(
                f"move of {words} words exceeds absolute budget: "
                f"moved={self._moved}, limit={self._limit}"
            )
        self._moved += words
        if self.observer is not None:
            self.observer.emit_charge("move", words, self.remaining)
        if tracer is not None:
            span.set(moved=self._moved)
            tracer.end(span)

    def snapshot(self) -> BudgetSnapshot:
        """An immutable copy of the ledger."""
        return BudgetSnapshot(
            self._allocated, self._moved, None, absolute_limit=self._limit
        )

    def check_invariant(self) -> None:
        """Assert the absolute cap holds."""
        assert self._moved <= self._limit, (
            f"absolute budget violated: moved={self._moved} > {self._limit}"
        )
