"""Simulation experiments: running the constructions against managers.

These are the empirical legs of the reproduction.  A lower bound can
only be *witnessed* (the adversary must beat every manager we field), an
upper bound can only be *stress-tested* (the construction must survive
every program we field) — both are grids of
:func:`repro.adversary.driver.run_execution` calls with the results
compared against the closed-form bounds.

Everything runs at the scaled-down parameters of
:mod:`repro.core.tables` by default (pure-Python heaps at the paper's
256MB scale are infeasible; the substitution is documented in DESIGN.md
and the scale is part of every result row).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from ..adversary.base import AdversaryProgram
from ..adversary.driver import ExecutionResult, run_execution
from ..adversary.pf_program import PFProgram
from ..adversary.robson_program import RobsonProgram
from ..adversary.workloads import (
    PhasedWorkload,
    RandomChurnWorkload,
    SawtoothWorkload,
)
from ..core import robson as robson_bounds
from ..core.params import BoundParams
from ..mm.registry import create_manager, manager_names

__all__ = [
    "ExperimentRow",
    "robson_experiment",
    "pf_experiment",
    "upper_bound_experiment",
    "DEFAULT_ROBSON_MANAGERS",
    "DEFAULT_PF_MANAGERS",
    "DEFAULT_UPPER_BOUND_PROGRAMS",
]

#: Non-moving managers the Robson experiment sweeps.
DEFAULT_ROBSON_MANAGERS = (
    "first-fit",
    "best-fit",
    "next-fit",
    "worst-fit",
    "segregated-fit",
    "buddy",
    "robson",
)

#: Managers (non-moving and compacting) the P_F experiment sweeps.
DEFAULT_PF_MANAGERS = (
    "first-fit",
    "best-fit",
    "segregated-fit",
    "sliding-compactor",
    "window-compactor",
    "bp-collector",
    "theorem2",
    "mark-compact",
    "semispace",
)


def _engine_rows(
    params: BoundParams,
    grid: "list[tuple[str, str, dict]]",
    jobs: int,
    cache_dir: Union[str, Path, None],
    tracer=None,
    kernel: str | None = None,
) -> list[ExecutionResult]:
    """Run a (program, manager) grid through the parallel engine.

    ``grid`` rows are ``(program_key, manager_name, program_options)``.
    Used by the experiment entry points whenever no per-row sinks
    (telemetry recording, sanitizer) are requested — those still take
    the serial in-process path below.  ``tracer`` (an enabled
    :class:`~repro.obs.trace.Tracer`) records per-task spans across
    worker lanes.
    """
    from ..parallel import ParallelEngine, SimTask  # local: keep import light

    engine = ParallelEngine(jobs=jobs, cache_dir=cache_dir, tracer=tracer)
    tasks = [
        SimTask.build(params, manager, program, kernel=kernel, **options)
        for program, manager, options in grid
    ]
    return [result.to_execution_result() for result in engine.run(tasks)]


def _run_row(
    params: BoundParams,
    program: AdversaryProgram,
    manager_name: str,
    telemetry_dir: Union[str, Path, None],
    sanitize: bool = False,
    tracer=None,
    kernel: str | None = None,
) -> ExecutionResult:
    """One grid cell: plain execution, or a recorded one when requested.

    With ``telemetry_dir`` set, the row runs fully instrumented and its
    manifest/tape pair lands in ``<dir>/<program>__<manager>/`` —
    renderable individually with ``repro report``.  With ``sanitize``
    set, the full :mod:`repro.check` checker set rides the run and an
    :class:`~repro.check.InvariantViolationError` aborts the grid on the
    first row that breaks a paper invariant.
    """
    manager = create_manager(manager_name, params)
    sanitizer = None
    if sanitize:
        from ..check import CheckContext, Sanitizer  # local: avoid cycle

        sanitizer = Sanitizer(CheckContext.from_params(
            params, program=program.name, manager=manager_name,
        ))
        sanitizer.attach_program(program)
    if telemetry_dir is None:
        if sanitizer is None:
            return run_execution(params, program, manager, tracer=tracer,
                                 kernel=kernel)
        from ..obs.events import EventBus

        bus = EventBus()
        sanitizer.attach(bus)
        result = run_execution(params, program, manager, observer=bus,
                               tracer=tracer, kernel=kernel)
        sanitizer.finish()
        return result
    from ..obs.telemetry import run_recorded  # local: avoid import cycle

    row_dir = Path(telemetry_dir) / f"{program.name}__{manager_name}"
    drivers: list = []
    result = run_recorded(
        params, program, manager, row_dir,
        on_driver=drivers.append,
        tracer=tracer,
        kernel=kernel,
    )
    if sanitizer is not None:
        sanitizer.attach(drivers[0].observer).finish()
    return result


def discretization_allowance(params: BoundParams, density_exponent: int) -> float:
    """Waste-factor slack between the closed-form ``h`` and a finite run.

    Theorem 1's ``h`` drops floor functions that are negligible at paper
    scale but visible at simulation scale:

    * Stage II allocates ``floor(x M / 2^(i+2))`` objects per step,
      losing up to ``2^(i+2)`` words each — at most ``2n`` words over
      the whole stage (geometric sum up to ``i = log2(n) - 2``);
    * the potential's last-chunk correction is ``n/4`` words;
    * Stage I's per-step flooring loses at most ``2^(ell+1)`` words.

    Dividing by ``M`` gives the waste-factor allowance.  At the paper's
    parameters (``n/M = 2^-8``) this is under 0.9%; at ``M = 64 n`` it
    is ~3.6%, which is why the simulation harness compares against
    ``h - allowance`` rather than raw ``h``.
    """
    M, n = params.live_space, params.max_object
    return (2.0 * n + n / 4.0 + 2.0 ** (density_exponent + 1)) / M


@dataclass(frozen=True)
class ExperimentRow:
    """One (program, manager) execution with its theoretical reference."""

    result: ExecutionResult
    bound_factor: float
    bound_name: str
    #: Waste-factor slack granted for finite-scale flooring effects
    #: (zero for upper-bound rows; see :func:`discretization_allowance`).
    allowance: float = 0.0

    @property
    def measured_factor(self) -> float:
        """The execution's ``HS / M``."""
        return self.result.waste_factor

    @property
    def effective_floor(self) -> float:
        """The lower bound after discretization allowance (never < 1)."""
        return max(1.0, self.bound_factor - self.allowance)

    @property
    def respects_lower_bound(self) -> bool:
        """Measured waste must reach the (allowance-adjusted) floor."""
        return self.measured_factor >= self.effective_floor - 1e-9

    @property
    def respects_upper_bound(self) -> bool:
        """Measured waste must be at most the guaranteed bound."""
        return self.measured_factor <= self.bound_factor + 1e-9


def robson_experiment(
    params: BoundParams,
    manager_names_to_run: tuple[str, ...] = DEFAULT_ROBSON_MANAGERS,
    *,
    telemetry_dir: Union[str, Path, None] = None,
    sanitize: bool = False,
    jobs: int = 1,
    cache_dir: Union[str, Path, None] = None,
    tracer=None,
    kernel: str | None = None,
) -> list[ExperimentRow]:
    """Robson's :math:`P_R` against the non-moving manager family.

    The reference bound is Robson's lower bound factor — every row's
    measured waste must be at or above it.  ``telemetry_dir`` records
    each row as a manifest/tape run under a per-row subdirectory;
    ``sanitize`` runs the :mod:`repro.check` checkers alongside.
    ``jobs``/``cache_dir`` fan the grid over the parallel engine —
    available only on the plain path (telemetry and sanitizer runs need
    in-process sinks and stay serial).
    """
    bound = robson_bounds.lower_bound_factor(params)
    if telemetry_dir is None and not sanitize:
        grid = [("robson", name, {}) for name in manager_names_to_run]
        return [
            ExperimentRow(result, bound, "robson-lower")
            for result in _engine_rows(params, grid, jobs, cache_dir, tracer,
                                       kernel)
        ]
    rows = []
    for name in manager_names_to_run:
        program = RobsonProgram(params)
        result = _run_row(params, program, name, telemetry_dir, sanitize,
                          tracer, kernel)
        rows.append(ExperimentRow(result, bound, "robson-lower"))
    return rows


def pf_experiment(
    params: BoundParams,
    manager_names_to_run: tuple[str, ...] = DEFAULT_PF_MANAGERS,
    *,
    density_exponent: int | None = None,
    telemetry_dir: Union[str, Path, None] = None,
    sanitize: bool = False,
    jobs: int = 1,
    cache_dir: Union[str, Path, None] = None,
    tracer=None,
    kernel: str | None = None,
) -> list[ExperimentRow]:
    """The paper's :math:`P_F` against a manager family.

    The reference is the Theorem-1 factor ``h`` at the adversary's
    density exponent — the theorem says *no* c-partial manager can stay
    below it.  ``telemetry_dir`` records each row as a manifest/tape
    run under a per-row subdirectory; ``sanitize`` runs the
    :mod:`repro.check` checkers alongside.  ``jobs``/``cache_dir``
    route the grid through the parallel engine on the plain path
    (instrumented runs stay serial).
    """
    if params.compaction_divisor is None:
        raise ValueError("pf_experiment needs a finite c in params")
    # One reference instance supplies the bound/allowance (they depend
    # only on params + density_exponent, not on execution state).
    reference = PFProgram(params, density_exponent=density_exponent)
    bound = max(1.0, reference.waste_target)
    allowance = discretization_allowance(params, reference.density_exponent)
    if telemetry_dir is None and not sanitize:
        options = ({} if density_exponent is None
                   else {"density_exponent": density_exponent})
        grid = [("pf", name, options) for name in manager_names_to_run]
        return [
            ExperimentRow(result, bound, "theorem1-h", allowance=allowance)
            for result in _engine_rows(params, grid, jobs, cache_dir, tracer,
                                       kernel)
        ]
    rows = []
    for name in manager_names_to_run:
        program = PFProgram(params, density_exponent=density_exponent)
        result = _run_row(params, program, name, telemetry_dir, sanitize,
                          tracer, kernel)
        rows.append(
            ExperimentRow(result, bound, "theorem1-h", allowance=allowance)
        )
    return rows


#: Program catalog keys the upper-bound experiment runs by default.
DEFAULT_UPPER_BOUND_PROGRAMS = (
    "pf", "robson", "churn", "sawtooth", "phased",
)


def upper_bound_experiment(
    params: BoundParams,
    *,
    programs: tuple[AdversaryProgram, ...] | None = None,
    telemetry_dir: Union[str, Path, None] = None,
    sanitize: bool = False,
    jobs: int = 1,
    cache_dir: Union[str, Path, None] = None,
    tracer=None,
    kernel: str | None = None,
) -> list[ExperimentRow]:
    """The BP collector against adversarial and benign programs.

    The reference is its ``(c+1)`` guarantee; every row must stay below
    it.  (Theorem 2's own manager is exercised in the same sweep via
    :data:`DEFAULT_PF_MANAGERS`; its *guarantee* is checked separately in
    the benchmarks because its bound formula needs the coefficients.)
    With the default program set, ``jobs``/``cache_dir`` route through
    the parallel engine; custom ``programs`` instances are not
    picklable-by-spec and run serially.
    """
    c = params.compaction_divisor
    if c is None:
        raise ValueError("upper_bound_experiment needs a finite c")
    if programs is None and telemetry_dir is None and not sanitize:
        grid = [(key, "bp-collector", {})
                for key in DEFAULT_UPPER_BOUND_PROGRAMS]
        return [
            ExperimentRow(result, c + 1.0, "bp-(c+1)M")
            for result in _engine_rows(params, grid, jobs, cache_dir, tracer,
                                       kernel)
        ]
    if programs is None:
        programs = (
            PFProgram(params),
            RobsonProgram(params),
            RandomChurnWorkload(params),
            SawtoothWorkload(params),
            PhasedWorkload(params),
        )
    rows = []
    for program in programs:
        result = _run_row(params, program, "bp-collector", telemetry_dir,
                          sanitize, tracer, kernel)
        rows.append(ExperimentRow(result, c + 1.0, "bp-(c+1)M"))
    return rows


def best_manager_against_pf(
    params: BoundParams,
    manager_names_to_run: tuple[str, ...] = DEFAULT_PF_MANAGERS,
) -> tuple[str, float]:
    """The family's best (lowest) measured waste against :math:`P_F`.

    This is the number the lower bound constrains: even the best manager
    we could field must sit above ``h``.
    """
    rows = pf_experiment(params, manager_names_to_run)
    best = min(rows, key=lambda row: row.measured_factor)
    return best.result.manager_name, best.measured_factor


def all_manager_names() -> list[str]:
    """Convenience re-export for harness code."""
    return manager_names()
