"""Paper-invariant sanitizer: independent checks over the event stream.

See :mod:`repro.check.base` for the framework and ``docs/static-analysis.md``
for the checker-by-checker description.  Entry points:

* ``repro check <run-dir-or-event-file>`` — offline static analysis of
  a recorded run;
* ``repro simulate/experiment --sanitize`` — the same checkers over the
  live run's tape, at its end;
* :func:`~repro.check.runner.run_checkers` /
  :class:`~repro.check.runner.Sanitizer` — the library API.
"""

from .base import (
    CheckContext,
    Checker,
    CheckReport,
    InvariantViolationError,
    Violation,
)
from .budget_replay import BudgetReplayChecker
from .density import DensityChecker, DensityObserver
from .determinism import (
    DeterminismChecker,
    event_stream_digest,
    replay_digest,
)
from .fixtures import FIXTURES, Fixture, clone_events, corrupt
from .program_model import ProgramModelChecker
from .runner import (
    DEFAULT_CHECKERS,
    Sanitizer,
    check_run_directory,
    check_trace_file,
    run_checkers,
)
from .shadow_heap import ShadowHeapChecker

__all__ = [
    "CheckContext",
    "Checker",
    "CheckReport",
    "InvariantViolationError",
    "Violation",
    "ShadowHeapChecker",
    "BudgetReplayChecker",
    "ProgramModelChecker",
    "DensityChecker",
    "DensityObserver",
    "DeterminismChecker",
    "event_stream_digest",
    "replay_digest",
    "FIXTURES",
    "Fixture",
    "clone_events",
    "corrupt",
    "DEFAULT_CHECKERS",
    "Sanitizer",
    "check_run_directory",
    "check_trace_file",
    "run_checkers",
]
