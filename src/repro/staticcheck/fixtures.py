"""Known-bad programs every rule must provably flag.

The runtime checkers have :mod:`repro.check.fixtures` — corrupted event
streams each sanitizer rule must catch; this is the same idea one level
up.  Each fixture here is a tiny in-memory program (a ``{relpath:
source}`` mapping laid out like the real tree, so the default
:class:`~repro.staticcheck.base.StaticCheckConfig` applies unchanged)
seeded with exactly one bug of a known class, plus the rule id that must
fire on it.  ``tests/staticcheck/test_corpus.py`` runs the whole
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

_FIXTURE_SET_BEFORE_TAPE_DIGEST = StaticFixture(
    name="set-iteration-before-tape-digest",
    description=(
        "a replay helper folds a set of manager names into its run order "
        "and then hashes through an attribute chain (bus.tape.digest()): "
        "the call graph cannot type the receiver, so the digest method "
        "must still mark the function digest-relevant by name"
    ),
    pass_name="determinism",
    expect_rule="unordered-iteration",
    expect_symbol="repro.check.replay.replay_all",
    files={
        "src/repro/check/replay.py": _src("""
            def replay_all(bus, run, managers):
                for name in set(managers):
                    run(bus, name)
                return bus.tape.digest()
        """),
    },
    fixed_files={
        "src/repro/check/replay.py": _src("""
            def replay_all(bus, run, managers):
                for name in sorted(set(managers)):
                    run(bus, name)
                return bus.tape.digest()
        """),
    },
)

_FIXTURE_ENV_READ = StaticFixture(
    name="env-read-before-emit",
    description=(
        "a program step reads an environment variable to size its "
        "requests: two runs of one seed in different shells emit "
        "different streams, and no cache key would tell them apart"
    ),
    pass_name="determinism",
    expect_rule="env-read",
    expect_symbol="repro.adversary.sizing.emit_request",
    files={
        "src/repro/adversary/sizing.py": _src("""
            import os


            def emit_request(bus, object_id, address):
                size = int(os.environ.get("REPRO_SIZE", "8"))
                bus.emit_alloc(object_id, size, address)
        """),
    },
    fixed_files={
        "src/repro/adversary/sizing.py": _src("""
            def emit_request(bus, object_id, address, size):
                bus.emit_alloc(object_id, size, address)
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
# lexical rules
# ---------------------------------------------------------------------------

_FIXTURE_NO_FLOAT_DIVISION = StaticFixture(
    name="float-division-in-budget",
    description=(
        "the ledger compares a true-division quotient against the "
        "budget: one ULP of rounding flips the boundary decision"
    ),
    pass_name="no-float",
    expect_rule="no-float",
    files={"src/repro/mm/budget.py": _src("""
        def can_move(moved: int, allocated: int, c: int) -> bool:
            return moved <= allocated / c
    """)},
    fixed_files={"src/repro/mm/budget.py": _src("""
        def can_move(moved: int, allocated: int, c: int) -> bool:
            return moved * c <= allocated
    """)},
)

_FIXTURE_NO_FLOAT_LITERAL = StaticFixture(
    name="float-literal-in-exact",
    description=(
        "a solver module under src/repro/exact/ scales a heap size by a "
        "float literal; the fixed variant marks a display-only float "
        "with the pragma"
    ),
    pass_name="no-float",
    expect_rule="no-float",
    files={"src/repro/exact/search.py": _src("""
        def ceiling(words: int) -> int:
            return int(words * 1.5)
    """)},
    fixed_files={"src/repro/exact/search.py": _src("""
        def ceiling(words: int) -> int:
            return words * 3 // 2


        def describe(words: int, live: int) -> str:
            return f"{words / live:.2f} x M"  # lint: float-ok
    """)},
)

_FIXTURE_GLOBAL_RANDOM_CALL = StaticFixture(
    name="global-random-draw",
    description=(
        "a workload draws from the hidden module-level RNG, so two runs "
        "with the same seed can emit different streams"
    ),
    pass_name="unseeded-random",
    expect_rule="unseeded-random",
    files={"src/repro/adversary/churn.py": _src("""
        import random


        def next_size(max_object: int) -> int:
            return random.randint(1, max_object)
    """)},
    fixed_files={"src/repro/adversary/churn.py": _src("""
        import random


        def next_size(rng: random.Random, max_object: int) -> int:
            return rng.randint(1, max_object)
    """)},
)

_FIXTURE_GLOBAL_RANDOM_IMPORT = StaticFixture(
    name="global-random-import",
    description="importing shuffle from random binds the global RNG",
    pass_name="unseeded-random",
    expect_rule="unseeded-random",
    files={"src/repro/adversary/order.py": _src("""
        from random import shuffle


        def reorder(items):
            shuffle(items)
    """)},
    fixed_files={"src/repro/adversary/order.py": _src("""
        from random import Random


        def reorder(items, seed: int):
            Random(seed).shuffle(items)
    """)},
)

#: An events module skeleton: ``Rogue`` is a concrete event class.
_EVENTS_HEAD = _src("""
    class TelemetryEvent: ...


    class Rogue(TelemetryEvent):
        kind: ClassVar[str] = "rogue"


""")

_FIXTURE_EVENT_UNREGISTERED = StaticFixture(
    name="event-missing-from-registry",
    description=(
        "a new event class is exported but absent from _EVENT_TYPES, so "
        "event_from_dict cannot round-trip it"
    ),
    pass_name="event-registry",
    expect_rule="event-registry",
    files={"src/repro/obs/events.py": _EVENTS_HEAD + _src("""
        _EVENT_TYPES = {}
        __all__ = ["TelemetryEvent", "Rogue"]
    """)},
    fixed_files={"src/repro/obs/events.py": _EVENTS_HEAD + _src("""
        _EVENT_TYPES = {cls.kind: cls for cls in (Rogue,)}
        __all__ = ["TelemetryEvent", "Rogue"]
    """)},
)

_FIXTURE_EVENT_UNEXPORTED = StaticFixture(
    name="event-missing-from-all",
    description="a registered event class is missing from __all__",
    pass_name="event-registry",
    expect_rule="event-registry",
    files={"src/repro/obs/events.py": _EVENTS_HEAD + _src("""
        _EVENT_TYPES = {cls.kind: cls for cls in (Rogue,)}
        __all__ = ["TelemetryEvent"]
    """)},
    fixed_files={"src/repro/obs/events.py": _EVENTS_HEAD + _src("""
        _EVENT_TYPES = {cls.kind: cls for cls in (Rogue,)}
        __all__ = ["TelemetryEvent", "Rogue"]
    """)},
)

_FIXTURE_ALL_PHANTOM = StaticFixture(
    name="all-exports-unbound-name",
    description="__all__ names a helper the module never binds",
    pass_name="all-consistency",
    expect_rule="all-consistency",
    files={"src/repro/core/series.py": _src("""
        __all__ = ["harmonic", "geometric_tail"]


        def harmonic(n: int) -> int:
            return n
    """)},
    fixed_files={"src/repro/core/series.py": _src("""
        __all__ = ["harmonic"]


        def harmonic(n: int) -> int:
            return n
    """)},
)

_FIXTURE_ALL_DUPLICATE = StaticFixture(
    name="all-duplicate-entry",
    description=(
        "__all__ lists a name twice; a TYPE_CHECKING binding still "
        "counts as bound in the fixed variant"
    ),
    pass_name="all-consistency",
    expect_rule="all-consistency",
    files={"src/repro/core/units.py": _src("""
        __all__ = ["KB", "KB"]
        KB = 1024
    """)},
    fixed_files={"src/repro/core/units.py": _src("""
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.core.params import BoundParams

        __all__ = ["KB", "BoundParams"]
        KB = 1024
    """)},
)

_FIXTURE_INTERVAL_READ = StaticFixture(
    name="manager-reads-interval-arrays",
    description=(
        "a manager reads the interval set's coordinate list directly "
        "instead of asking the public gap API"
    ),
    pass_name="interval-internals",
    expect_rule="interval-internals",
    files={"src/repro/mm/fits.py": _src("""
        def first_start(heap):
            return heap.occupied._starts[0]
    """)},
    fixed_files={"src/repro/mm/fits.py": _src("""
        def first_gap(heap, size: int):
            return heap.occupied.find_first_gap(size)
    """)},
)

_FIXTURE_INTERVAL_WRITE = StaticFixture(
    name="analysis-pokes-gap-index",
    description=(
        "analysis code resets the gap index's class mask, leaving the "
        "placement index out of sync with the interval arrays; heap "
        "code itself may touch the internals"
    ),
    pass_name="interval-internals",
    expect_rule="interval-internals",
    files={"src/repro/analysis/defrag.py": _src("""
        def reset(index):
            index._class_mask = 0
    """)},
    fixed_files={"src/repro/heap/gap_index.py": _src("""
        class GapIndex:
            def clear(self):
                self._class_mask = 0
    """)},
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
    _FIXTURE_SET_BEFORE_TAPE_DIGEST,
    _FIXTURE_ENV_READ,
    _FIXTURE_BUDGET_REFUND,
    _FIXTURE_BUDGET_SENTINEL,
    _FIXTURE_BUDGET_FLOAT_MULT,
    _FIXTURE_BUDGET_DOOMED_CALL,
    _FIXTURE_INVARIANT_RAISE,
    _FIXTURE_INVARIANT_RETURN,
    _FIXTURE_ALIAS_MUTATION,
    _FIXTURE_INTERNAL_ESCAPE,
    _FIXTURE_NO_FLOAT_DIVISION,
    _FIXTURE_NO_FLOAT_LITERAL,
    _FIXTURE_GLOBAL_RANDOM_CALL,
    _FIXTURE_GLOBAL_RANDOM_IMPORT,
    _FIXTURE_EVENT_UNREGISTERED,
    _FIXTURE_EVENT_UNEXPORTED,
    _FIXTURE_ALL_PHANTOM,
    _FIXTURE_ALL_DUPLICATE,
    _FIXTURE_INTERVAL_READ,
    _FIXTURE_INTERVAL_WRITE,
)
