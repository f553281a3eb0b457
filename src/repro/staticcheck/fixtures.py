"""Known-bad programs every analysis pass must provably flag.

The runtime checkers have :mod:`repro.check.fixtures` — corrupted event
streams each sanitizer rule must catch; this is the same idea one level
up.  Each fixture here is a tiny in-memory program (a ``{relpath:
source}`` mapping laid out like the real tree, so the default
:class:`~repro.staticcheck.base.StaticCheckConfig` applies unchanged)
seeded with exactly one bug of a known class, plus the rule id that must
fire on it.  ``tests/staticcheck/test_fixtures.py`` runs the whole
matrix both ways: the bad program must produce the expected rule, and
the ``fixed`` variant (where provided) must come back clean — mutation
testing for the analyzer itself, so a pass that silently stops firing
fails CI.

Fixtures never touch the disk: they go through
:meth:`~repro.staticcheck.model.Program.from_sources` and
:func:`~repro.staticcheck.runner.run_on_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from textwrap import dedent

from .base import Finding, StaticCheckConfig
from .model import Program
from .runner import run_on_program

__all__ = ["StaticFixture", "STATIC_FIXTURES", "run_fixture"]


@dataclass(frozen=True)
class StaticFixture:
    """One seeded-bug program and the rule that must flag it."""

    name: str
    description: str
    #: The pass (registry name) under test — fixtures run only this pass,
    #: so a finding can only come from the analysis it exercises.
    pass_name: str
    #: The rule id the seeded bug must trigger.
    expect_rule: str
    #: ``{relpath: source}`` of the seeded-bug program.
    files: dict[str, str]
    #: Substring that must appear in the flagged symbol (when set).
    expect_symbol: str | None = None
    #: Optional clean variant: same program with the bug repaired; the
    #: pass must report nothing on it.
    fixed_files: dict[str, str] = field(default_factory=dict)


def run_fixture(fixture: StaticFixture, *,
                fixed: bool = False) -> list[Finding]:
    """Run the fixture's pass over its (bad or fixed) program."""
    files = fixture.fixed_files if fixed else fixture.files
    if not files:
        raise ValueError(f"fixture {fixture.name!r} has no "
                         f"{'fixed' if fixed else 'bad'} files")
    program = Program.from_sources(files)
    return run_on_program(program, StaticCheckConfig(),
                          rules=[fixture.pass_name])


def _src(text: str) -> str:
    return dedent(text).lstrip("\n")


# ---------------------------------------------------------------------------
# float-taint pass
# ---------------------------------------------------------------------------

#: A helper module whose return value is float-tainted.
_TAINTED_HELPER = _src("""
    \"\"\"Utility helpers (not budget-critical themselves).\"\"\"


    def average_ratio(moved: int, total: int) -> float:
        if total == 0:
            return 0.0
        return moved / total
""")

_FIXTURE_TAINT_RETURN = StaticFixture(
    name="taint-through-return",
    description=(
        "a budget-file function returns the result of a helper (defined "
        "in another module) whose own return is float-tainted; per-line "
        "lint cannot see this, the interprocedural summary must"
    ),
    pass_name="float-taint",
    expect_rule="float-taint",
    expect_symbol="repro.mm.budget.current_ratio",
    files={
        "src/repro/util/ratios.py": _TAINTED_HELPER,
        "src/repro/mm/budget.py": _src("""
            \"\"\"Budget accounting (exact arithmetic only).\"\"\"

            from repro.util.ratios import average_ratio


            def current_ratio(moved: int, total: int) -> int:
                return average_ratio(moved, total)
        """),
    },
    fixed_files={
        "src/repro/util/ratios.py": _src("""
            \"\"\"Utility helpers (not budget-critical themselves).\"\"\"


            def scaled_ratio(moved: int, total: int) -> int:
                if total == 0:
                    return 0
                return (moved * 1000) // total
        """),
        "src/repro/mm/budget.py": _src("""
            \"\"\"Budget accounting (exact arithmetic only).\"\"\"

            from repro.util.ratios import scaled_ratio


            def current_ratio(moved: int, total: int) -> int:
                return scaled_ratio(moved, total)
        """),
    },
)

_FIXTURE_TAINT_CALL = StaticFixture(
    name="taint-through-call",
    description=(
        "taint crosses two call hops: budget code calls a clean-looking "
        "wrapper which calls a deep helper built on time.time(); the "
        "summary fixpoint must propagate float-ness up the chain"
    ),
    pass_name="float-taint",
    expect_rule="float-taint",
    expect_symbol="repro.mm.budget.charge_estimate",
    files={
        "src/repro/util/clock.py": _src("""
            import time


            def stamp():
                return time.time()


            def wrapped_stamp():
                return stamp()
        """),
        "src/repro/mm/budget.py": _src("""
            from repro.util.clock import wrapped_stamp


            def charge_estimate(size: int):
                return wrapped_stamp()
        """),
    },
    fixed_files={
        "src/repro/util/clock.py": _src("""
            import time


            def stamp():
                return time.time_ns()


            def wrapped_stamp():
                return stamp()
        """),
        "src/repro/mm/budget.py": _src("""
            from repro.util.clock import wrapped_stamp


            def charge_estimate(size: int):
                return wrapped_stamp()
        """),
    },
)

_FIXTURE_TAINT_ARG = StaticFixture(
    name="taint-through-arg",
    description=(
        "a caller outside the budget files passes a float literal into a "
        "budget function whose parameter is declared int — the taint "
        "enters through the argument, not the return"
    ),
    pass_name="float-taint",
    expect_rule="float-taint-arg",
    expect_symbol="repro.sim.engine.run_step",
    files={
        "src/repro/mm/budget.py": _src("""
            def charge(amount: int) -> int:
                return amount * 2
        """),
        "src/repro/sim/engine.py": _src("""
            from repro.mm.budget import charge


            def run_step():
                return charge(0.5)
        """),
    },
    fixed_files={
        "src/repro/mm/budget.py": _src("""
            def charge(amount: int) -> int:
                return amount * 2
        """),
        "src/repro/sim/engine.py": _src("""
            from repro.mm.budget import charge


            def run_step():
                return charge(1)
        """),
    },
)


_FIXTURE_NUMPY_FLOAT_RETURN = StaticFixture(
    name="numpy-float-into-budget",
    description=(
        "budget code consumes a helper built on np.mean: numpy floats "
        "carry the same ULP hazard as Python floats, so the typed "
        "boundary must treat np.float producers as taint sources"
    ),
    pass_name="float-taint",
    expect_rule="float-taint",
    expect_symbol="repro.mm.budget.spent_fraction",
    files={
        "src/repro/util/kernel_stats.py": _src("""
            import numpy as np


            def window_cost(costs):
                return np.mean(costs)
        """),
        "src/repro/mm/budget.py": _src("""
            from repro.util.kernel_stats import window_cost


            def spent_fraction(costs):
                return window_cost(costs)
        """),
    },
    fixed_files={
        "src/repro/util/kernel_stats.py": _src("""
            import numpy as np


            def window_cost(costs):
                return int(np.count_nonzero(costs))
        """),
        "src/repro/mm/budget.py": _src("""
            from repro.util.kernel_stats import window_cost


            def spent_fraction(costs):
                return window_cost(costs)
        """),
    },
)

_FIXTURE_NUMPY_INT_BOUNDARY = StaticFixture(
    name="numpy-float-scalar-arg",
    description=(
        "a caller passes np.float64(...) into a budget function typed "
        "int: the boundary flags the float scalar, while the fixed "
        "variant's np.int64(...) crosses clean — numpy *integer* "
        "scalars compare exactly and must not trip the rule"
    ),
    pass_name="float-taint",
    expect_rule="float-taint-arg",
    expect_symbol="repro.sim.engine.charge_window",
    files={
        "src/repro/mm/budget.py": _src("""
            def charge(amount: int) -> int:
                return amount * 2
        """),
        "src/repro/sim/engine.py": _src("""
            import numpy as np

            from repro.mm.budget import charge


            def charge_window(costs):
                return charge(np.float64(costs[0]))
        """),
    },
    fixed_files={
        "src/repro/mm/budget.py": _src("""
            def charge(amount: int) -> int:
                return amount * 2
        """),
        "src/repro/sim/engine.py": _src("""
            import numpy as np

            from repro.mm.budget import charge


            def charge_window(costs):
                return charge(np.int64(costs[0]))
        """),
    },
)


# ---------------------------------------------------------------------------
# determinism pass
# ---------------------------------------------------------------------------

_FIXTURE_UNORDERED_DICT = StaticFixture(
    name="unordered-dict-into-digest",
    description=(
        "the canonical digest helper iterates a dict through set(), "
        "re-randomizing insertion order under hash seeding — the classic "
        "unordered-collection-into-digest bug"
    ),
    pass_name="determinism",
    expect_rule="unordered-iteration",
    expect_symbol="repro.check.determinism.canonical_event_bytes",
    files={
        "src/repro/check/determinism.py": _src("""
            def canonical_event_bytes(payload: dict) -> bytes:
                parts = []
                for key in set(payload):
                    parts.append(f"{key}={payload[key]}")
                return "|".join(parts).encode("ascii")
        """),
    },
    fixed_files={
        "src/repro/check/determinism.py": _src("""
            def canonical_event_bytes(payload: dict) -> bytes:
                parts = []
                for key in sorted(payload):
                    parts.append(f"{key}={payload[key]}")
                return "|".join(parts).encode("ascii")
        """),
    },
)

_FIXTURE_ID_ORDERING = StaticFixture(
    name="id-ordering-before-emit",
    description=(
        "a function that emits events orders its work list with "
        "sorted(key=id): object addresses differ across runs, so event "
        "order — and the digest — diverges"
    ),
    pass_name="determinism",
    expect_rule="id-ordering",
    expect_symbol="repro.sim.engine.flush",
    files={
        "src/repro/sim/engine.py": _src("""
            def flush(self, pending):
                for item in sorted(pending, key=id):
                    self.bus.emit(item)
        """),
    },
    fixed_files={
        "src/repro/sim/engine.py": _src("""
            def flush(self, pending):
                for item in sorted(pending, key=lambda e: e.seq):
                    self.bus.emit(item)
        """),
    },
)

_FIXTURE_TIME_READ = StaticFixture(
    name="time-into-digest",
    description=(
        "a wall-clock read (time.time) inside emit-reachable code: the "
        "emitted payload would differ between identically-seeded runs"
    ),
    pass_name="determinism",
    expect_rule="time-read",
    expect_symbol="repro.obs.bus.stamp_and_emit",
    files={
        "src/repro/obs/bus.py": _src("""
            import time


            def stamp_and_emit(bus, event):
                event.stamp = time.time()
                bus.emit(event)
        """),
    },
    fixed_files={
        "src/repro/obs/bus.py": _src("""
            import time


            def stamp_and_emit(bus, event):
                event.latency = time.perf_counter()
                bus.emit(event)
        """),
    },
)


_FIXTURE_SET_INTO_TAPE = StaticFixture(
    name="set-iteration-into-emit-alloc",
    description=(
        "a helper re-emits live objects by iterating a set and calling a "
        "per-kind producer (bus.emit_alloc): set order varies with hash "
        "seeding, so the tape rows — and the digest — differ between "
        "identically-seeded runs"
    ),
    pass_name="determinism",
    expect_rule="unordered-iteration",
    expect_symbol="repro.adversary.restore.emit_live",
    files={
        "src/repro/adversary/restore.py": _src("""
            def emit_live(bus, objects):
                for obj in set(objects):
                    bus.emit_alloc(obj.object_id, obj.size, obj.address)
        """),
    },
    fixed_files={
        "src/repro/adversary/restore.py": _src("""
            def emit_live(bus, objects):
                for obj in sorted(set(objects), key=lambda o: o.object_id):
                    bus.emit_alloc(obj.object_id, obj.size, obj.address)
        """),
    },
)


# ---------------------------------------------------------------------------
# pickle pass
# ---------------------------------------------------------------------------

#: The worker module skeleton shared by the pickle fixtures.
_FIXTURE_UNPICKLABLE_FIELD = StaticFixture(
    name="unpicklable-task-field",
    description=(
        "a SimTask field annotated Callable: the spec would fail (or "
        "worse, partially survive) pickling into the worker pool"
    ),
    pass_name="pickle",
    expect_rule="unpicklable-field",
    expect_symbol="repro.parallel.tasks.SimTask",
    files={
        "src/repro/parallel/tasks.py": _src("""
            from dataclasses import dataclass
            from typing import Callable


            @dataclass(frozen=True)
            class SimTask:
                seed: int
                on_done: Callable[[int], None]


            def run_task(task: SimTask):
                return task.seed
        """),
    },
    fixed_files={
        "src/repro/parallel/tasks.py": _src("""
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class SimTask:
                seed: int
                done_event: str


            def run_task(task: SimTask):
                return task.seed
        """),
    },
)

_FIXTURE_LAMBDA_DEFAULT = StaticFixture(
    name="lambda-default-field",
    description=(
        "a task-spec field defaulting to a lambda — unpicklable even "
        "though the annotation looks innocent"
    ),
    pass_name="pickle",
    expect_rule="unpicklable-field",
    expect_symbol="repro.parallel.tasks.SimTask",
    files={
        "src/repro/parallel/tasks.py": _src("""
            from dataclasses import dataclass


            @dataclass
            class SimTask:
                seed: int
                keyfn: object = lambda x: x


            def run_task(task: SimTask):
                return task.seed
        """),
    },
)

_FIXTURE_WORKER_MUTATION = StaticFixture(
    name="worker-global-mutation",
    description=(
        "worker-reachable code (two hops below run_task) appends to a "
        "module-level list: per-process copies diverge silently and "
        "results depend on chunk scheduling"
    ),
    pass_name="pickle",
    expect_rule="worker-global-mutation",
    expect_symbol="repro.parallel.stats.record",
    files={
        "src/repro/parallel/tasks.py": _src("""
            from repro.parallel.stats import record


            def run_task(task):
                record(task)
                return task
        """),
        "src/repro/parallel/stats.py": _src("""
            HISTORY = []


            def record(task):
                HISTORY.append(task)
        """),
    },
    fixed_files={
        "src/repro/parallel/tasks.py": _src("""
            from repro.parallel.stats import record


            def run_task(task):
                return record(task)
        """),
        "src/repro/parallel/stats.py": _src("""
            def record(task):
                history = []
                history.append(task)
                return history
        """),
    },
)

_FIXTURE_WORKER_GLOBAL = StaticFixture(
    name="worker-global-assign",
    description=(
        "run_task itself rebinds a module global via a ``global`` "
        "declaration — the canonical worker-state bug"
    ),
    pass_name="pickle",
    expect_rule="worker-global-mutation",
    expect_symbol="repro.parallel.tasks.run_task",
    files={
        "src/repro/parallel/tasks.py": _src("""
            COUNTER = 0


            def run_task(task):
                global COUNTER
                COUNTER = COUNTER + 1
                return COUNTER
        """),
    },
)


# ---------------------------------------------------------------------------
# budget-range pass (interval dataflow)
# ---------------------------------------------------------------------------

_FIXTURE_BUDGET_REFUND = StaticFixture(
    name="budget-unguarded-refund",
    description=(
        "a refund path subtracts an unconstrained amount from the "
        "allocation counter: the interval analysis cannot bound the "
        "result below by zero, so the ledger invariant is unproven"
    ),
    pass_name="budget-range",
    expect_rule="budget-negative",
    expect_symbol="repro.mm.budget.CompactionBudget.refund",
    files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self):
                    self._allocated = 0

                def refund(self, words):
                    self._allocated -= words
        """),
    },
    fixed_files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self):
                    self._allocated = 0

                def refund(self, words):
                    self._allocated = max(0, self._allocated - words)
        """),
    },
)

_FIXTURE_BUDGET_SENTINEL = StaticFixture(
    name="budget-negative-sentinel",
    description=(
        "a reset path stores -1 into the moved-words counter as a "
        "sentinel: provably negative, so every downstream comparison "
        "against the budget is meaningless"
    ),
    pass_name="budget-range",
    expect_rule="budget-negative",
    expect_symbol="repro.mm.budget.CompactionBudget.reset",
    files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self):
                    self._moved = 0

                def reset(self):
                    self._moved = -1
        """),
    },
    fixed_files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self):
                    self._moved = 0

                def reset(self):
                    self._moved = 0
        """),
    },
)

_FIXTURE_BUDGET_FLOAT_MULT = StaticFixture(
    name="budget-float-cross-mult",
    description=(
        "the budget comparison multiplies by a ratio computed with true "
        "division: the cross-multiplication is float-valued, so the "
        "exact-arithmetic comparison silently becomes approximate"
    ),
    pass_name="budget-range",
    expect_rule="budget-int",
    expect_symbol="repro.mm.budget.CompactionBudget.within_budget",
    files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self, num, den):
                    self._allocated = 0
                    self._moved = 0
                    self._num = num
                    self._den = den

                def within_budget(self, words):
                    ratio = self._num / self._den
                    return (self._moved + words) * ratio <= self._allocated
        """),
    },
    fixed_files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self, num, den):
                    self._allocated = 0
                    self._moved = 0
                    self._num = num
                    self._den = den

                def within_budget(self, words):
                    lhs = (self._moved + words) * self._num
                    return lhs <= self._allocated * self._den
        """),
    },
)

_FIXTURE_BUDGET_DOOMED_CALL = StaticFixture(
    name="budget-doomed-call",
    description=(
        "a caller two modules away passes a provably-zero word count "
        "into charge_allocation, whose guard raises on words <= 0 on "
        "every path: the call can only raise at runtime; the validator "
        "summary plus the caller's intervals prove it"
    ),
    pass_name="budget-range",
    expect_rule="budget-call",
    expect_symbol="repro.sim.engine.bootstrap",
    files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self):
                    self._allocated = 0

                def charge_allocation(self, words):
                    if words <= 0:
                        raise ValueError("words must be positive")
                    self._allocated += words
        """),
        "src/repro/sim/engine.py": _src("""
            def bootstrap(budget):
                words = 0
                budget.charge_allocation(words)
        """),
    },
    fixed_files={
        "src/repro/mm/budget.py": _src("""
            class CompactionBudget:
                def __init__(self):
                    self._allocated = 0

                def charge_allocation(self, words):
                    if words <= 0:
                        raise ValueError("words must be positive")
                    self._allocated += words
        """),
        "src/repro/sim/engine.py": _src("""
            def bootstrap(budget):
                words = 1
                budget.charge_allocation(words)
        """),
    },
)


# ---------------------------------------------------------------------------
# invariant-safety pass (exception-path dataflow)
# ---------------------------------------------------------------------------

_FIXTURE_INVARIANT_RAISE = StaticFixture(
    name="invariant-raise-between-pair",
    description=(
        "an interval move removes the old entry, then validates the new "
        "address and raises: the exception escapes between the paired "
        "remove/add, leaving the index desynchronized from the heap"
    ),
    pass_name="invariant-safety",
    expect_rule="invariant-safety",
    expect_symbol="repro.heap.intervals.IntervalSet.move_interval",
    files={
        "src/repro/heap/intervals.py": _src("""
            class IntervalSet:
                def __init__(self):
                    self._index = set()

                def move_interval(self, old, new):
                    self._index.remove(old)
                    if new < 0:
                        raise ValueError("negative address")
                    self._index.add(new)
        """),
    },
    fixed_files={
        "src/repro/heap/intervals.py": _src("""
            class IntervalSet:
                def __init__(self):
                    self._index = set()

                def move_interval(self, old, new):
                    if new < 0:
                        raise ValueError("negative address")
                    self._index.remove(old)
                    self._index.add(new)
        """),
    },
)

_FIXTURE_INVARIANT_RETURN = StaticFixture(
    name="invariant-return-between-pair",
    description=(
        "a relocation removes the old gap, then bails out with an early "
        "return when the destination is taken: the normal return path "
        "escapes with the pair half-applied"
    ),
    pass_name="invariant-safety",
    expect_rule="invariant-safety",
    expect_symbol="repro.heap.gap_index.GapTable.relocate",
    files={
        "src/repro/heap/gap_index.py": _src("""
            class GapTable:
                def __init__(self):
                    self._gaps = set()
                    self._taken = set()

                def relocate(self, old, new):
                    self._gaps.remove(old)
                    if new in self._taken:
                        return False
                    self._gaps.add(new)
                    return True
        """),
    },
    fixed_files={
        "src/repro/heap/gap_index.py": _src("""
            class GapTable:
                def __init__(self):
                    self._gaps = set()
                    self._taken = set()

                def relocate(self, old, new):
                    if new in self._taken:
                        return False
                    self._gaps.remove(old)
                    self._gaps.add(new)
                    return True
        """),
    },
)


# ---------------------------------------------------------------------------
# alias-escape pass (flow-sensitive escape analysis)
# ---------------------------------------------------------------------------

_FIXTURE_ALIAS_MUTATION = StaticFixture(
    name="alias-mutation-outside-heap",
    description=(
        "simulation code aliases an interval-set internal into a local "
        "and mutates the alias one statement later: the lexical "
        "interval-internals rule sees only the access, the dataflow "
        "sees the mutation"
    ),
    pass_name="alias-escape",
    expect_rule="interval-alias",
    expect_symbol="repro.sim.compactor.trim_last",
    files={
        "src/repro/sim/compactor.py": _src("""
            def trim_last(intervals):
                rows = intervals._starts
                rows.pop()
                return rows
        """),
    },
    fixed_files={
        "src/repro/sim/compactor.py": _src("""
            def trim_last(intervals):
                rows = list(intervals._starts)
                rows.pop()
                return rows
        """),
    },
)

_FIXTURE_INTERNAL_ESCAPE = StaticFixture(
    name="internal-escape-from-heap",
    description=(
        "a heap-package accessor returns the live list behind the "
        "interval set: any caller can now desynchronize the index "
        "without the lexical rule ever seeing an underscore access"
    ),
    pass_name="alias-escape",
    expect_rule="interval-escape",
    expect_symbol="repro.heap.gap_index.GapIndex.snapshot",
    files={
        "src/repro/heap/gap_index.py": _src("""
            class GapIndex:
                def __init__(self):
                    self._starts = []

                def snapshot(self):
                    return self._starts
        """),
    },
    fixed_files={
        "src/repro/heap/gap_index.py": _src("""
            class GapIndex:
                def __init__(self):
                    self._starts = []

                def snapshot(self):
                    return list(self._starts)
        """),
    },
)


# ---------------------------------------------------------------------------
# dead-flow pass (unreachable code, dead stores)
# ---------------------------------------------------------------------------

_FIXTURE_DEAD_STORE = StaticFixture(
    name="dead-store-overwritten",
    description=(
        "a binding computed from a call is overwritten before any read "
        "on any path: backward liveness proves the store dead (the call "
        "may still matter — the finding says keep the call, drop the "
        "binding)"
    ),
    pass_name="dead-flow",
    expect_rule="dead-store",
    expect_symbol="repro.sim.planner.plan_total",
    files={
        "src/repro/sim/planner.py": _src("""
            def checksum(n):
                return n * 31


            def plan_total(n):
                total = checksum(n)
                total = 0
                for step in range(n):
                    total += step
                return total
        """),
    },
    fixed_files={
        "src/repro/sim/planner.py": _src("""
            def checksum(n):
                return n * 31


            def plan_total(n):
                checksum(n)
                total = 0
                for step in range(n):
                    total += step
                return total
        """),
    },
)

_FIXTURE_UNREACHABLE_TAIL = StaticFixture(
    name="unreachable-after-return",
    description=(
        "cleanup code stranded after an unconditional return: no CFG "
        "path from the function entry reaches it, so the close never "
        "runs"
    ),
    pass_name="dead-flow",
    expect_rule="unreachable-code",
    expect_symbol="repro.sim.reporter.finish",
    files={
        "src/repro/sim/reporter.py": _src("""
            def finish(report):
                return report.total
                report.close()
        """),
    },
    fixed_files={
        "src/repro/sim/reporter.py": _src("""
            def finish(report):
                report.close()
                return report.total
        """),
    },
)


# ---------------------------------------------------------------------------
# worker-shared-state pass (concurrency tier)
# ---------------------------------------------------------------------------

_FIXTURE_WORKER_CLASS_ATTR = StaticFixture(
    name="worker-class-attr-write",
    description=(
        "run_task bumps a counter stored as a *class* attribute: shared "
        "across every instance in a process, never shared back across "
        "the pool fork — serial and parallel totals silently diverge"
    ),
    pass_name="worker-shared-state",
    expect_rule="worker-shared-state",
    expect_symbol="repro.parallel.tasks.run_task",
    files={
        "src/repro/parallel/tasks.py": _src("""
            class TaskStats:
                completed = 0


            def run_task(task):
                TaskStats.completed = TaskStats.completed + 1
                return task
        """),
    },
    fixed_files={
        "src/repro/parallel/tasks.py": _src("""
            class TaskStats:
                completed = 0


            def run_task(task):
                return (task, 1)
        """),
    },
)

_FIXTURE_WORKER_PARAM_MUTATION = StaticFixture(
    name="worker-param-mutation",
    description=(
        "run_task passes an *imported* module-level dict into a helper "
        "that stores through the matching parameter: neither function "
        "alone looks wrong, only the summary fixpoint (helper mutates "
        "its param) composed with the call-site binding exposes the "
        "shared write"
    ),
    pass_name="worker-shared-state",
    expect_rule="worker-shared-state",
    expect_symbol="repro.parallel.tasks.run_task",
    files={
        "src/repro/parallel/registry.py": _src("""
            SEEN = {}


            def remember(store, task):
                store[task] = True
        """),
        "src/repro/parallel/tasks.py": _src("""
            from repro.parallel.registry import SEEN, remember


            def run_task(task):
                remember(SEEN, task)
                return task
        """),
    },
    fixed_files={
        "src/repro/parallel/registry.py": _src("""
            def remember(store, task):
                store[task] = True
        """),
        "src/repro/parallel/tasks.py": _src("""
            from repro.parallel.registry import remember


            def run_task(task):
                seen = {}
                remember(seen, task)
                return task
        """),
    },
)


# ---------------------------------------------------------------------------
# fork-unsafe-resource pass (concurrency tier)
# ---------------------------------------------------------------------------

_FIXTURE_FORK_LOCK = StaticFixture(
    name="fork-unsafe-lock",
    description=(
        "a module-level threading.Lock is created before the pool forks "
        "and then taken inside run_task: each worker inherits a private "
        "copy, so the lock synchronizes nothing (and a lock held at "
        "fork time deadlocks the child)"
    ),
    pass_name="fork-unsafe-resource",
    expect_rule="fork-unsafe-resource",
    expect_symbol="repro.parallel.tasks.run_task",
    files={
        "src/repro/parallel/tasks.py": _src("""
            import threading

            _IO_LOCK = threading.Lock()


            def run_task(task):
                with _IO_LOCK:
                    return task
        """),
    },
    fixed_files={
        "src/repro/parallel/tasks.py": _src("""
            import threading

            _IO_LOCK = threading.Lock()


            def submit(engine, tasks):
                with _IO_LOCK:
                    return engine.run(tasks)


            def run_task(task):
                return task
        """),
    },
)

_FIXTURE_FORK_TRACER = StaticFixture(
    name="fork-unsafe-tracer",
    description=(
        "a module-level Tracer singleton (a configured resource class) "
        "is used worker-side: its buffers and lock predate the fork, so "
        "worker spans land in a copy nobody ever reads; the fixed "
        "variant constructs the tracer inside the worker"
    ),
    pass_name="fork-unsafe-resource",
    expect_rule="fork-unsafe-resource",
    expect_symbol="repro.parallel.tasks.run_task",
    files={
        "src/repro/obs/trace.py": _src("""
            class Tracer:
                def __init__(self):
                    self.spans = []

                def record(self, name):
                    self.spans.append(name)


            NULL_TRACER = Tracer()
        """),
        "src/repro/parallel/tasks.py": _src("""
            from repro.obs.trace import NULL_TRACER


            def run_task(task):
                NULL_TRACER.record(task)
                return task
        """),
    },
    fixed_files={
        "src/repro/obs/trace.py": _src("""
            class Tracer:
                def __init__(self):
                    self.spans = []

                def record(self, name):
                    self.spans.append(name)
        """),
        "src/repro/parallel/tasks.py": _src("""
            from repro.obs.trace import Tracer


            def run_task(task):
                tracer = Tracer()
                tracer.record(task)
                return (task, tracer.spans)
        """),
    },
)


# ---------------------------------------------------------------------------
# cache-key-completeness pass (concurrency tier)
# ---------------------------------------------------------------------------

_FIXTURE_CACHE_ENV = StaticFixture(
    name="cache-unkeyed-env-read",
    description=(
        "run_task short-circuits on an env variable that is neither "
        "parent-side-keyed nor declared value-neutral: two environments "
        "share one ResultCache entry, so whichever ran first poisons "
        "the other"
    ),
    pass_name="cache-key-completeness",
    expect_rule="cache-key-completeness",
    expect_symbol="repro.parallel.tasks.run_task",
    files={
        "src/repro/parallel/tasks.py": _src("""
            import os


            def run_task(task):
                if os.environ.get("REPRO_FAST_PATH"):
                    return 0
                return task
        """),
    },
    fixed_files={
        "src/repro/parallel/tasks.py": _src("""
            def run_task(task):
                if task.fast_path:
                    return 0
                return task
        """),
    },
)

_FIXTURE_CACHE_GLOBAL = StaticFixture(
    name="cache-runtime-global-read",
    description=(
        "cached-result scope reads a module-level override table that "
        "another function mutates at runtime: the table's state never "
        "reaches the task digest, so cached results go stale the "
        "moment an override lands"
    ),
    pass_name="cache-key-completeness",
    expect_rule="cache-key-completeness",
    expect_symbol="repro.heap.kernel.resolve_kernel",
    files={
        "src/repro/heap/kernel.py": _src("""
            KERNEL_OVERRIDES = {}


            def set_kernel_override(name, value):
                KERNEL_OVERRIDES[name] = value


            def resolve_kernel(name):
                return KERNEL_OVERRIDES.get(name, name)
        """),
        "src/repro/parallel/tasks.py": _src("""
            from repro.heap.kernel import resolve_kernel


            def run_task(task):
                return resolve_kernel(task)
        """),
    },
    fixed_files={
        "src/repro/heap/kernel.py": _src("""
            def resolve_kernel(name, overrides):
                return overrides.get(name, name)
        """),
        "src/repro/parallel/tasks.py": _src("""
            from repro.heap.kernel import resolve_kernel


            def run_task(task):
                return resolve_kernel(task, {})
        """),
    },
)


# ---------------------------------------------------------------------------
# merge-order pass (concurrency tier)
# ---------------------------------------------------------------------------

_FIXTURE_MERGE_SET = StaticFixture(
    name="merge-order-set-iteration",
    description=(
        "the engine's merge loop deduplicates through set(): worker "
        "results submitted in order come back out in hash order, which "
        "PYTHONHASHSEED re-randomizes per process — the exact bug the "
        "serial/parallel byte-identity contract exists to prevent"
    ),
    pass_name="merge-order",
    expect_rule="merge-order",
    expect_symbol="repro.parallel.engine.ParallelEngine.run",
    files={
        "src/repro/parallel/engine.py": _src("""
            class ParallelEngine:
                def run(self, tasks):
                    results = []
                    for task in set(tasks):
                        results.append(task)
                    return results
        """),
    },
    fixed_files={
        "src/repro/parallel/engine.py": _src("""
            class ParallelEngine:
                def run(self, tasks):
                    results = []
                    for task in tasks:
                        results.append(task)
                    return results
        """),
    },
)

_FIXTURE_MERGE_LISTING = StaticFixture(
    name="merge-order-dir-listing",
    description=(
        "a sweep merge iterates os.listdir: filesystem order is "
        "platform- and history-dependent, so the merged rows differ "
        "between machines that computed identical shards"
    ),
    pass_name="merge-order",
    expect_rule="merge-order",
    expect_symbol="repro.analysis.sweep.simulation_sweep",
    files={
        "src/repro/analysis/sweep.py": _src("""
            import os


            def simulation_sweep(shard_dir):
                rows = []
                for name in os.listdir(shard_dir):
                    rows.append(name)
                return rows
        """),
    },
    fixed_files={
        "src/repro/analysis/sweep.py": _src("""
            import os


            def simulation_sweep(shard_dir):
                rows = []
                for name in sorted(os.listdir(shard_dir)):
                    rows.append(name)
                return rows
        """),
    },
)


#: The full corpus, in documentation order.
STATIC_FIXTURES: tuple[StaticFixture, ...] = (
    _FIXTURE_TAINT_RETURN,
    _FIXTURE_TAINT_CALL,
    _FIXTURE_TAINT_ARG,
    _FIXTURE_NUMPY_FLOAT_RETURN,
    _FIXTURE_NUMPY_INT_BOUNDARY,
    _FIXTURE_UNORDERED_DICT,
    _FIXTURE_ID_ORDERING,
    _FIXTURE_TIME_READ,
    _FIXTURE_SET_INTO_TAPE,
    _FIXTURE_UNPICKLABLE_FIELD,
    _FIXTURE_LAMBDA_DEFAULT,
    _FIXTURE_WORKER_MUTATION,
    _FIXTURE_WORKER_GLOBAL,
    _FIXTURE_BUDGET_REFUND,
    _FIXTURE_BUDGET_SENTINEL,
    _FIXTURE_BUDGET_FLOAT_MULT,
    _FIXTURE_BUDGET_DOOMED_CALL,
    _FIXTURE_INVARIANT_RAISE,
    _FIXTURE_INVARIANT_RETURN,
    _FIXTURE_ALIAS_MUTATION,
    _FIXTURE_INTERNAL_ESCAPE,
    _FIXTURE_DEAD_STORE,
    _FIXTURE_UNREACHABLE_TAIL,
    _FIXTURE_WORKER_CLASS_ATTR,
    _FIXTURE_WORKER_PARAM_MUTATION,
    _FIXTURE_FORK_LOCK,
    _FIXTURE_FORK_TRACER,
    _FIXTURE_CACHE_ENV,
    _FIXTURE_CACHE_GLOBAL,
    _FIXTURE_MERGE_SET,
    _FIXTURE_MERGE_LISTING,
)
