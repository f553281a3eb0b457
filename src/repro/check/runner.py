"""Run the checkers: offline over recorded runs, online at run end.

Every path hands the checkers an :class:`~repro.obs.tape.EventTape`
and each checker makes one pass over its columns
(:meth:`~repro.check.base.Checker.check`):

* :func:`check_run_directory` — the static-analysis path (``repro
  check``): loads a recorded run directory (``manifest.json`` plus
  ``events.tape``, or a legacy ``events.jsonl``), builds the
  :class:`~repro.check.base.CheckContext` from the manifest and checks
  the stored tape;
* :func:`check_trace_file` does the same for a bare event file (either
  form) with no manifest — parameter-dependent checks are skipped,
  structural ones (shadow heap, charge pairing, stage machine) still
  run;
* a :class:`Sanitizer` — the ``--sanitize`` path — is attached to the
  live :class:`~repro.obs.events.EventBus` and checks its tape at
  :meth:`Sanitizer.finish`; it does not subscribe, so the run builds no
  event objects for it.  It also rides the
  :class:`~repro.adversary.pf_program.PFProgram` observer hooks (the
  association map is only reachable online) and raises
  :class:`~repro.check.base.InvariantViolationError` at
  :meth:`Sanitizer.finish` if anything was flagged.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Type, Union

from .base import CheckContext, Checker, CheckReport, InvariantViolationError
from .budget_replay import BudgetReplayChecker
from .density import DensityChecker, DensityObserver
from .determinism import DeterminismChecker
from .program_model import ProgramModelChecker
from .shadow_heap import ShadowHeapChecker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.base import AdversaryProgram
    from ..obs.events import EventBus
    from ..obs.tape import EventTape

__all__ = [
    "DEFAULT_CHECKERS",
    "run_checkers",
    "check_run_directory",
    "check_trace_file",
    "Sanitizer",
]

_PathLike = Union[str, Path]

#: The full checker set, in report order.
DEFAULT_CHECKERS: tuple[Type[Checker], ...] = (
    ShadowHeapChecker,
    BudgetReplayChecker,
    ProgramModelChecker,
    DensityChecker,
    DeterminismChecker,
)


def _check(checkers: Sequence[Checker], tape: "EventTape") -> CheckReport:
    """Run each checker's pass over ``tape``; return the joint report."""
    for checker in checkers:
        checker.check(tape)
    report = CheckReport(checkers=list(checkers), event_count=len(tape))
    for checker in checkers:
        if isinstance(checker, DeterminismChecker) and checker.digest:
            report.notes["event_digest"] = checker.digest
    return report


def run_checkers(
    tape: "EventTape",
    context: CheckContext,
    checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
) -> CheckReport:
    """Check ``tape`` with fresh checkers; return the joint report."""
    return _check([checker_type(context) for checker_type in checker_types],
                  tape)


def check_run_directory(
    directory: _PathLike,
    checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
) -> CheckReport:
    """Offline-check a recorded run directory (manifest + events)."""
    from ..obs.export import load_run

    run = load_run(directory)
    context = CheckContext.from_manifest(run.manifest)
    return run_checkers(run.tape, context, checker_types)


def check_trace_file(
    path: _PathLike,
    checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
) -> CheckReport:
    """Offline-check a bare event file (no manifest, fewer checks)."""
    from ..obs.export import read_tape

    return run_checkers(read_tape(path), CheckContext(), checker_types)


class Sanitizer:
    """Online checker harness: checks a bus's tape, rides program hooks.

    Usage::

        sanitizer = Sanitizer(CheckContext.from_params(params, ...))
        sanitizer.attach(bus)              # the bus whose tape to check
        sanitizer.attach_program(program)  # PF-only association checks
        ... run ...
        report = sanitizer.finish()        # raises on any violation
    """

    def __init__(
        self,
        context: CheckContext,
        checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
    ) -> None:
        self.context = context
        self.checkers = [checker_type(context) for checker_type in checker_types]
        self._bus: "EventBus | None" = None
        self._report: CheckReport | None = None

    def attach(self, bus: "EventBus") -> "Sanitizer":
        """Check ``bus.tape`` at :meth:`finish`; returns self."""
        self._bus = bus
        return self

    def attach_program(self, program: "AdversaryProgram") -> "Sanitizer":
        """Ride the program's observer hooks when it exposes them.

        Only :class:`~repro.adversary.pf_program.PFProgram` has the
        observer protocol today; anything else is left untouched.  An
        observer the caller already installed keeps working — the
        sanitizer's :class:`~repro.check.density.DensityObserver` chains
        in front of it.
        """
        from ..adversary.pf_program import PFProgram

        if isinstance(program, PFProgram):
            density = next(
                (c for c in self.checkers if isinstance(c, DensityChecker)),
                None,
            )
            if density is not None:
                program.observer = DensityObserver(
                    density, wrapped=program.observer
                )
        return self

    def finish(self, *, raise_on_violation: bool = True) -> CheckReport:
        """Check the attached bus's tape (once); raise if anything was flagged."""
        if self._report is None:
            from ..obs.tape import EventTape

            tape = self._bus.tape if self._bus is not None else EventTape()
            self._report = _check(self.checkers, tape)
        if raise_on_violation and not self._report.ok:
            raise InvariantViolationError(self._report)
        return self._report
