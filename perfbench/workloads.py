"""The four benchmark workloads, each a closed loop over public entry points.

Constructing a workload is its set-up (imports, parameters, tasks,
programs, managers, the cache directory); :meth:`Workload.run_pass` runs
one measured pass and checks every output it produced.  Each pass times
only the operations it measures — per-pass preparation such as building
fresh single-use managers or an empty cache directory sits outside the
timed regions.

Every operation (simulation, task, audit, solve) is counted in a
:class:`Tally`; one that raises or fails its output check counts as
failed.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import layers
import pins

#: Seed of the manager_throughput churn stream, the one with pinned values.
DEFAULT_CHURN_SEED = 11


@dataclass
class Tally:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, problem: str | None) -> None:
        """Count one operation; ``problem`` (if any) marks it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")

    def raised(self, what: str, error: BaseException) -> None:
        """Count one operation that raised."""
        self.check(what, f"raised {type(error).__name__}: {error}")

    @property
    def ops_failed_frac(self) -> float:
        """Failed operations over attempted ones (0 before any attempt)."""
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class PassResult:
    """What one measured pass took and did."""

    #: Host seconds of the pass's measured operations.
    wall_s: float
    #: Simulated heap events (allocs + frees + moves); orbits for solve.
    events: int
    #: Host seconds of the phase that produced ``events``.
    events_s: float
    #: Named phases of the pass (record_s, audit_s, solve_s, ...).
    phases: dict[str, float] = field(default_factory=dict)


def heap_events(result: Any) -> int:
    """Allocations + frees + moves of one simulation result."""
    return result.allocation_count + result.free_count + result.move_count


class Workload:
    """Base class: construct = set up; then measured passes."""

    name = ""
    #: Whether ``--seed`` changes the inputs.
    uses_seed = False

    def __init__(self, seed: int, work_dir: Path, jobs: int | None = None) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def run_pass(self, tally: Tally,
                 tracer: "layers.LayerTracer | None" = None) -> PassResult:
        """One measured pass; every output is checked into ``tally``."""
        raise NotImplementedError

    def final_check(self, tally: Tally) -> None:
        """Unmeasured checks run once after the measured passes."""

    def environment(self) -> dict[str, Any]:
        """What the result depends on besides the code."""
        return {}


class PFRowCheck:
    """A pf_family row reaches the Theorem-1 floor and replays its digest."""

    def __init__(self, bound: float, allowance: float,
                 digests: dict[str, str]) -> None:
        self.bound = bound
        self.allowance = allowance
        self.digests = digests

    def __call__(self, result: Any) -> str | None:
        from repro.analysis.experiments import ExperimentRow

        row = ExperimentRow(result.to_execution_result(), self.bound,
                            "theorem1-h", allowance=self.allowance)
        if not row.respects_lower_bound:
            return (f"waste {row.measured_factor:.4f} below the Theorem-1 "
                    f"floor {row.effective_floor:.4f}")
        pinned = self.digests.get(result.manager_name)
        if result.event_digest != pinned:
            return f"event digest {result.event_digest} != pinned {pinned}"
        return None


class PFFamily(Workload):
    """P_F against DEFAULT_PF_MANAGERS at M=8192, n=128, c=50, jobs=1."""

    name = "pf_family"

    def __init__(self, seed: int, work_dir: Path, jobs: int | None = None) -> None:
        super().__init__(seed, work_dir)
        from repro.adversary.pf_program import PFProgram
        from repro.analysis.experiments import (
            DEFAULT_PF_MANAGERS,
            discretization_allowance,
        )
        from repro.core.params import BoundParams
        from repro.parallel import ParallelEngine, SimTask

        self.engine_type = ParallelEngine
        self.params = BoundParams(8192, 128, 50.0)
        # The path of ``repro experiment pf``: the default kernel
        # resolution, no cache, results in submission order.
        self.tasks = [SimTask.build(self.params, manager, "pf")
                      for manager in DEFAULT_PF_MANAGERS]
        reference = PFProgram(self.params)
        self.check_row = PFRowCheck(
            max(1.0, reference.waste_target),
            discretization_allowance(self.params, reference.density_exponent),
            pins.PF_DIGESTS,
        )

    def run_pass(self, tally: Tally,
                 tracer: "layers.LayerTracer | None" = None) -> PassResult:
        engine = self.engine_type(jobs=1)
        wall = 0.0
        events = 0
        for task in self.tasks:
            start = perf_counter()
            try:
                [result] = engine.run([task])
            except Exception as error:  # one row's failure is counted, not fatal
                wall += perf_counter() - start
                tally.raised(f"pf/{task.manager}", error)
                continue
            wall += perf_counter() - start
            events += heap_events(result)
            tally.check(f"pf/{task.manager}", self.check_row(result))
        return PassResult(wall_s=wall, events=events, events_s=wall)


def churn_problem(result: Any, live_space: int,
                  pinned: "tuple[int, int, int] | None") -> str | None:
    """Contract checks on one churn simulation, plus pins when known."""
    if result.live_peak > live_space:
        return f"live peak {result.live_peak} exceeds M={live_space}"
    if not result.budget.within_budget():
        return f"moved {result.budget.moved_words} words beyond the c-partial budget"
    if pinned is not None:
        got = (result.heap_size, result.total_moved, result.event_count)
        if got != tuple(pinned):
            return f"(heap_size, total_moved, event_count) {got} != pinned {tuple(pinned)}"
    return None


class Churn(Workload):
    """A seeded RandomChurnWorkload against every registered manager."""

    name = "churn"
    uses_seed = True
    #: The manager_throughput point: M=4096, n=64, c=10, 1500 requests.
    OPERATIONS = 1500

    def __init__(self, seed: int, work_dir: Path, jobs: int | None = None) -> None:
        super().__init__(seed, work_dir)
        from repro.adversary import RandomChurnWorkload, run_execution
        from repro.core.params import BoundParams
        from repro.mm import create_manager, manager_names

        self.params = BoundParams(4096, 64, 10.0)
        self.names = manager_names()
        self.program_type = RandomChurnWorkload
        self.create_manager = create_manager
        self.run_execution = run_execution
        # Managers and programs are single-use: the first pass's are
        # set-up, later passes build theirs outside the timed region.
        self.prepared = self.build(seed)

    def build(self, seed: int) -> list[tuple[str, Any, Any]]:
        """Fresh (manager name, program, manager) triples for one pass."""
        return [
            (name,
             self.program_type(self.params, operations=self.OPERATIONS, seed=seed),
             self.create_manager(name, self.params))
            for name in self.names
        ]

    def simulate(self, seed: int, tally: Tally) -> PassResult:
        """Run every manager on the stream of ``seed``; check each result."""
        triples = self.prepared if self.prepared is not None else self.build(seed)
        self.prepared = None
        pinned = pins.CHURN if seed == DEFAULT_CHURN_SEED else {}
        wall = 0.0
        events = 0
        for name, program, manager in triples:
            start = perf_counter()
            try:
                result = self.run_execution(self.params, program, manager)
            except Exception as error:  # one manager's failure is counted, not fatal
                wall += perf_counter() - start
                tally.raised(f"churn/{name}", error)
                continue
            wall += perf_counter() - start
            events += heap_events(result)
            tally.check(f"churn/{name}", churn_problem(
                result, self.params.live_space, pinned.get(name)))
        return PassResult(wall_s=wall, events=events, events_s=wall)

    def run_pass(self, tally: Tally,
                 tracer: "layers.LayerTracer | None" = None) -> PassResult:
        return self.simulate(self.seed, tally)

    def final_check(self, tally: Tally) -> None:
        # The pins hold for the default stream only; replay it once.
        if self.seed != DEFAULT_CHURN_SEED:
            self.simulate(DEFAULT_CHURN_SEED, tally)


class SweepAudit(Workload):
    """Cold sweep into an empty cache, a warm re-run, an audit of every entry."""

    name = "sweep_audit"
    #: The CLI's default ``repro sweep`` grid and managers, at M=4096, n=64.
    GRID = (5.0, 10.0, 20.0, 50.0, 100.0)
    MANAGERS = ("first-fit", "sliding-compactor", "theorem2")

    def __init__(self, seed: int, work_dir: Path, jobs: int | None = None) -> None:
        super().__init__(seed, work_dir)
        from repro.analysis.sweep import simulation_sweep
        from repro.check import check_run_directory
        from repro.core.params import BoundParams
        from repro.parallel import ParallelEngine

        self.jobs = 2 if jobs is None else jobs
        self.base = BoundParams(4096, 64)
        self.simulation_sweep = simulation_sweep
        self.check_run_directory = check_run_directory
        self.engine_type = ParallelEngine
        self.size = len(self.GRID) * len(self.MANAGERS)
        self.passes = 0
        self.cache_dir = self.fresh_cache_dir()

    def fresh_cache_dir(self) -> Path:
        """An empty cache directory no earlier pass has touched."""
        path = self.work_dir / f"sweep-cache-{self.passes}"
        path.mkdir(parents=True)
        return path

    def run_pass(self, tally: Tally,
                 tracer: "layers.LayerTracer | None" = None) -> PassResult:
        cache_dir = self.cache_dir if self.passes == 0 else self.fresh_cache_dir()
        self.passes += 1
        engine = self.engine_type(jobs=self.jobs, cache_dir=cache_dir)
        sweep = (self.base, self.GRID, self.MANAGERS)
        start = perf_counter()
        try:
            cold_rows = self.simulation_sweep(*sweep, engine=engine)
            cold = engine.stats
            recorded = perf_counter()
            warm_rows = self.simulation_sweep(*sweep, engine=engine)
            warm = engine.stats
        except Exception as error:  # a broken sweep fails every task in it
            elapsed = perf_counter() - start
            for _ in range(2 * self.size):
                tally.raised("sweep", error)
            shutil.rmtree(cache_dir, ignore_errors=True)
            return PassResult(wall_s=elapsed, events=0, events_s=elapsed)
        warmed = perf_counter()
        entries = engine.cache.entry_dirs()
        reports: list[tuple[Path, Any]] = []
        for entry in entries:
            try:
                audit = layers.traced(tracer, self.check_run_directory,
                                      layers.AUDIT, "audit", entry.name[:12])
                reports.append((entry, audit(entry)))
            except Exception as error:  # one unreadable entry fails one audit
                tally.raised(f"audit/{entry.name[:12]}", error)
        audited = perf_counter()

        cold_problem = None
        if cold.executed != self.size:
            cold_problem = f"executed {cold.executed} of {self.size} tasks"
        elif cold.grid_digest != pins.SWEEP_GRID_DIGEST:
            cold_problem = f"grid digest {cold.grid_digest} != pinned"
        warm_problem = None
        if warm.executed != 0:
            warm_problem = f"warm pass executed {warm.executed} tasks"
        elif warm.grid_digest != pins.SWEEP_GRID_DIGEST or warm_rows != cold_rows:
            warm_problem = "warm pass did not reproduce the cold sweep"
        for _ in range(self.size):
            tally.check("sweep/cold", cold_problem)
            tally.check("sweep/warm", warm_problem)
        for entry, report in reports:
            tally.check(f"audit/{entry.name[:12]}", None if report.ok else
                        f"{len(report.violations)} violations")
        for _ in range(self.size - len(entries)):
            tally.check("audit", "cache entry missing")

        events = 0
        for entry in entries:
            record = json.loads((entry / "result.json").read_text(encoding="utf-8"))
            events += (record["allocation_count"] + record["free_count"]
                       + record["move_count"])
        shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(
            wall_s=audited - start, events=events, events_s=recorded - start,
            phases={"record_s": recorded - start, "audit_s": audited - warmed},
        )

    def environment(self) -> dict[str, Any]:
        return {"jobs": self.jobs}


#: (M, n, move budget) of every solve, with the game value it must reach.
SOLVE_POINTS = ((10, 2, None, 14), (8, 4, None, 13), (8, 2, 1, 11))


def solve_problem(live: int, max_object: int, budget: int | None,
                  expected: int, value: int) -> str | None:
    """Game values: Robson's formula when unbudgeted, and the pinned value."""
    if budget is None:
        from repro.core import robson
        from repro.core.params import BoundParams

        formula = robson.lower_bound_words(BoundParams(live, max_object))
        if value != formula:
            return f"value {value} != Robson's formula {formula}"
    if value != expected:
        return f"value {value} != pinned {expected}"
    return None


class Solve(Workload):
    """Fresh GameSolver instances at jobs=1: two open points, one budgeted."""

    name = "solve"

    def __init__(self, seed: int, work_dir: Path, jobs: int | None = None) -> None:
        super().__init__(seed, work_dir)
        from repro.exact.solver import GameSolver

        self.solver_type = GameSolver

    def run_pass(self, tally: Tally,
                 tracer: "layers.LayerTracer | None" = None) -> PassResult:
        phases = {"solve_s": 0.0, "budgeted_solve_s": 0.0}
        orbits = 0
        for live, max_object, budget, expected in SOLVE_POINTS:
            label = f"({live},{max_object})" + ("" if budget is None else f" B={budget}")
            # A fresh solver per solve: its transposition tables and the
            # lru_cache of repro.exact.minimum_heap_words would otherwise
            # turn a repeat into a lookup.
            solver = self.solver_type(live, max_object, move_budget=budget)
            start = perf_counter()
            try:
                value = layers.traced(tracer, solver.minimum_heap_words,
                                      layers.SEARCH, "solve", label)()
            except Exception as error:  # counted, the pass goes on
                value = None
                tally.raised(f"solve{label}", error)
            elapsed = perf_counter() - start
            phases["solve_s" if budget is None else "budgeted_solve_s"] += elapsed
            orbits += sum(stats.orbits_visited for stats in solver.history)
            if value is not None:
                tally.check(f"solve{label}", solve_problem(
                    live, max_object, budget, expected, value))
        wall = phases["solve_s"] + phases["budgeted_solve_s"]
        return PassResult(wall_s=wall, events=orbits, events_s=wall, phases=phases)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PFFamily, Churn, SweepAudit, Solve)
}
