"""Checker framework: independent re-verification of the paper's invariants.

The model contracts — moved ≤ allocated/c, live ≤ M, object sizes powers
of two ≤ n, Stage-II density, deterministic replays — are *enforced* at
single choke points (:class:`~repro.mm.budget.CompactionBudget`, the
driver's guards).  The checkers in this package re-derive each invariant
**independently** from the telemetry event stream, in the spirit of a
heap sanitizer: the enforcement code could be wrong, the instrumentation
could be wrong, a recorded trace could be corrupted — a checker that
recomputes the invariant from raw events catches all three.

A :class:`Checker` reads a run's :class:`~repro.obs.tape.EventTape` —
the columns a bus recorded (online, at the end of a ``--sanitize`` run)
or a run directory stored (offline, ``repro check``) — in one pass,
:meth:`Checker.check`, end-of-stream obligations included.  No event
objects are built: a checker walks the rows of the kinds it reads
(:meth:`~repro.obs.tape.EventTape.walk`), keeping exact running sums
and shadow state, or hashes the columns (``determinism``).  Every
divergence is recorded as a :class:`Violation` rather than raised — a
sanitizer reports everything it finds, it does not stop at the first
bad event.

:class:`CheckContext` carries the run's contract parameters (``M``,
``n``, ``c``...) — from :class:`~repro.core.params.BoundParams` online,
or from a recorded run's ``manifest.json`` offline.  Every field is
optional: a checker skips exactly those checks whose parameters are
unknown (a bare event file with no manifest still gets the
parameter-free checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.params import BoundParams
    from ..obs.tape import EventTape

__all__ = [
    "Violation",
    "CheckContext",
    "Checker",
    "CheckReport",
    "InvariantViolationError",
    "POWER_OF_TWO_PROGRAMS",
]

#: Program families whose allocation sizes the model restricts to powers
#: of two (the paper's P(M, n) family; benign workloads are exempt).
POWER_OF_TWO_PROGRAMS = frozenset({"cohen-petrank-PF", "robson-PR"})


@dataclass(frozen=True)
class Violation:
    """One detected divergence from a paper invariant."""

    #: The reporting checker's :attr:`Checker.name`.
    checker: str
    #: Short rule slug (stable; tests and fixtures key on it).
    rule: str
    #: ``seq`` of the offending event, or ``-1`` for end-of-stream findings.
    seq: int
    #: Human-readable diagnosis.
    message: str

    def describe(self) -> str:
        """One line: ``[checker] rule at event #seq: message``."""
        where = f"event #{self.seq}" if self.seq >= 0 else "end of stream"
        return f"[{self.checker}] {self.rule} at {where}: {self.message}"


@dataclass(frozen=True)
class CheckContext:
    """The run's contract parameters, as far as they are known."""

    #: The live-space bound ``M`` in words (None = unknown).
    live_space: int | None = None
    #: The largest-object bound ``n`` in words (None = unknown).
    max_object: int | None = None
    #: The c-partial divisor (None = no compaction *or* unknown; see
    #: :attr:`budget_known`).
    divisor: float | None = None
    #: The B-bounded model's absolute cap, when that model ran.
    absolute_limit: int | None = None
    #: True when the budget model is known (distinguishes "c is None
    #: because compaction is forbidden" from "no manifest at all").
    budget_known: bool = False
    #: The program's :attr:`~repro.adversary.base.AdversaryProgram.name`.
    program: str | None = None
    #: The manager's registered name.
    manager: str | None = None
    #: Expected SHA-256 digest of the canonical event stream, when the
    #: producing run recorded one (see :mod:`repro.check.determinism`).
    expected_digest: str | None = None

    @property
    def power_of_two_sizes(self) -> bool:
        """Whether the program family restricts sizes to powers of two."""
        return self.program in POWER_OF_TWO_PROGRAMS

    @classmethod
    def from_params(
        cls,
        params: "BoundParams",
        *,
        program: str | None = None,
        manager: str | None = None,
        absolute_limit: int | None = None,
    ) -> "CheckContext":
        """Context for an online run at ``params``."""
        return cls(
            live_space=params.live_space,
            max_object=params.max_object,
            divisor=params.compaction_divisor,
            absolute_limit=absolute_limit,
            budget_known=True,
            program=program,
            manager=manager,
        )

    @classmethod
    def from_manifest(cls, manifest: Mapping[str, object]) -> "CheckContext":
        """Context recovered from a recorded run's ``manifest.json``."""
        params = manifest.get("params")
        if not isinstance(params, Mapping):
            params = {}
        result = manifest.get("result")
        budget: Mapping[str, object] = {}
        if isinstance(result, Mapping):
            maybe = result.get("budget")
            if isinstance(maybe, Mapping):
                budget = maybe
        divisor = params.get("compaction_divisor")
        absolute_limit = budget.get("absolute_limit")
        digest = manifest.get("event_digest")
        program = manifest.get("program")
        manager = manifest.get("manager")
        live_space = params.get("live_space")
        max_object = params.get("max_object")
        return cls(
            live_space=int(live_space) if isinstance(live_space, int) else None,
            max_object=int(max_object) if isinstance(max_object, int) else None,
            divisor=float(divisor) if isinstance(divisor, (int, float)) else None,
            absolute_limit=(
                int(absolute_limit) if isinstance(absolute_limit, int) else None
            ),
            budget_known=True,
            program=program if isinstance(program, str) else None,
            manager=manager if isinstance(manager, str) else None,
            expected_digest=digest if isinstance(digest, str) else None,
        )


class Checker:
    """Base class: one pass over a tape, collecting :class:`Violation` records.

    Subclasses set :attr:`name` (stable identifier) and
    :attr:`invariant` (the paper invariant being re-derived, for docs
    and reports), and override :meth:`check`.
    """

    #: Stable checker identifier (keys reports and fixture tests).
    name = "checker"
    #: One-line statement of the paper invariant this checker re-derives.
    invariant = ""

    def __init__(self, context: CheckContext) -> None:
        self.context = context
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        """True while no violation has been recorded."""
        return not self.violations

    def report(self, rule: str, message: str, *, seq: int = -1) -> None:
        """Record one violation (never raises)."""
        self.violations.append(Violation(self.name, rule, seq, message))

    def check(self, tape: "EventTape") -> None:
        """Check every row of ``tape``, end-of-stream obligations included."""


@dataclass
class CheckReport:
    """The outcome of running a set of checkers over one event stream."""

    checkers: list[Checker]
    event_count: int
    #: Extra per-run facts (e.g. the computed event digest).
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def violations(self) -> list[Violation]:
        """Every violation, in event order (end-of-stream findings last)."""
        found = [v for checker in self.checkers for v in checker.violations]
        return sorted(found, key=lambda v: (v.seq < 0, v.seq))

    @property
    def ok(self) -> bool:
        """True when no checker found anything."""
        return all(checker.ok for checker in self.checkers)

    def describe(self, *, max_violations: int = 50) -> str:
        """A multi-line human-readable summary."""
        lines = [
            f"checked {self.event_count} events with "
            f"{len(self.checkers)} checkers"
        ]
        for key, value in sorted(self.notes.items()):
            lines.append(f"  {key}: {value}")
        for checker in self.checkers:
            status = "ok" if checker.ok else f"{len(checker.violations)} violation(s)"
            lines.append(f"  {checker.name}: {status}")
        shown = self.violations[:max_violations]
        for violation in shown:
            lines.append(violation.describe())
        hidden = len(self.violations) - len(shown)
        if hidden > 0:
            lines.append(f"... and {hidden} more")
        return "\n".join(lines)


class InvariantViolationError(AssertionError):
    """Raised by online sanitizers when a run violated an invariant."""

    def __init__(self, report: CheckReport) -> None:
        self.report = report
        super().__init__(report.describe())

    @property
    def violations(self) -> Sequence[Violation]:
        """The offending findings."""
        return self.report.violations
