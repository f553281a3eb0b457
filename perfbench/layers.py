"""Per-layer self-time attribution for the traced benchmark run.

The traced run wraps public entry points of each repro layer and keeps,
per layer, an accumulator of self time (a call's duration minus the time
spent in wrapped calls it made), inclusive time and call count.  Nothing
is stored per call: ``IntervalSet.overlap_words`` alone runs millions of
times in one pf_family pass, far beyond what a per-call span list holds.
Only coarse spans (workload pass, simulation, task, audit, probe) are
kept as records, until the end of the run.

:func:`install` patches the classes and module attributes in place and
returns a function that restores them.  It is called only in the traced
process, after its untraced reference passes; untraced runs never import
the wrappers.  ``IntervalSet``, ``EventBus`` and ``BitmapKernel`` declare
``__slots__``, so every wrapper goes on the class, not the instance.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: Layer names whose accumulators feed the per-layer metrics.
PROGRAM = "adversary.program"
DRIVER = "adversary.driver"
PREPARE = "mm.prepare"
PLACE = "mm.place"
NOTIFY = "mm.notify"
BUDGET = "mm.budget"
MUTATE = "heap.mutate"
QUERY = "heap.query"
EMIT = "obs.emit"
EXPORT = "obs.export"
ENGINE = "parallel.engine"
TASK = "parallel.task"
CACHE_GET = "parallel.cache.get"
CACHE_RECORD = "parallel.cache.record"
AUDIT = "check"
READ = "check.read"
CHECKERS = "check.checkers"
SEARCH = "exact.search"
PROBE = "exact.probe"
WORKLOAD = "workload"


class Accumulator:
    """Self time, inclusive time and call count of one layer."""

    __slots__ = ("self_ns", "total_ns", "calls")

    def __init__(self) -> None:
        self.self_ns = 0
        self.total_ns = 0
        self.calls = 0


class LayerTracer:
    """A stack of open frames plus per-layer accumulators.

    A wrapped call opens a frame for its layer unless the innermost open
    frame already belongs to the same layer: re-entry (``super()``
    chains, ``is_free`` calling ``overlaps``) is one call of the layer,
    not two.  On return the frame's duration minus its children's is
    added to the layer's self time, and the whole duration is charged as
    a child to the enclosing frame, so a heap query made inside
    ``manager.prepare`` counts to ``heap.query`` and not ``mm.prepare``.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layers: dict[str, Accumulator] = {}
        #: Named counters (events, words, grants) fed by wrappers.
        self.counters: dict[str, float] = {}
        #: Coarse spans: (name, label, start_ns, end_ns, depth).
        self.spans: list[tuple[str, str, int, int, int]] = []
        # Each frame is [layer, child_ns]; the root frame has no layer.
        self._stack: list[list[Any]] = [[None, 0]]

    def layer(self, name: str) -> Accumulator:
        """The accumulator of one layer (created empty on first use)."""
        acc = self.layers.get(name)
        if acc is None:
            acc = self.layers[name] = Accumulator()
        return acc

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable[..., Any], layer: str, *,
             after: Callable[[tuple, dict, Any, int], None] | None = None,
             span: str | None = None,
             label: Callable[[tuple, dict], str] | None = None,
             ) -> Callable[..., Any]:
        """``fn`` timed into ``layer``.

        ``after(args, kwargs, result, elapsed_ns)`` runs once a call
        returns normally; ``span`` also records the call as a coarse
        span, labelled by ``label(args, kwargs)``.
        """
        acc = self.layer(layer)
        stack = self._stack
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                acc.self_ns += elapsed - frame[1]
                acc.total_ns += elapsed
                acc.calls += 1
                stack[-1][1] += elapsed
                if span is not None:
                    text = label(args, kwargs) if label is not None else ""
                    spans.append((span, text, start, end, len(stack) - 1))
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    def wrap_iter(self, fn: Callable[..., Iterator[Any]],
                  layer: str) -> Callable[..., Iterator[Any]]:
        """A generator function whose every ``next`` is timed into ``layer``.

        Timing only the call that creates a generator would miss all of
        its work; here each resumption is a frame of its own, and the
        generator counts as one call.
        """
        acc = self.layer(layer)
        stack = self._stack
        clock = self.clock

        def timed(inner: Iterator[Any]) -> Iterator[Any]:
            while True:
                if stack[-1][0] == layer:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                else:
                    frame = [layer, 0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        acc.self_ns += elapsed - frame[1]
                        acc.total_ns += elapsed
                        stack[-1][1] += elapsed
                yield item

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            if stack[-1][0] != layer:
                acc.calls += 1
            return timed(fn(*args, **kwargs))

        return wrapper


def traced(tracer: "LayerTracer | None", fn: Callable[..., Any], layer: str,
           span: str, label: str) -> Callable[..., Any]:
    """``fn`` as a coarse span of the benchmark's own, or ``fn`` untraced."""
    if tracer is None:
        return fn
    return tracer.wrap(fn, layer, span=span, label=lambda args, kwargs: label)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name`` (a class or module attribute)."""
        had = name in vars(owner)
        self._saved.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def undo(self) -> None:
        """Restore every replaced attribute."""
        while self._saved:
            owner, name, value, had = self._saved.pop()
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)


def _subclasses(root: type) -> list[type]:
    """``root`` and every (transitive) subclass, each once, in a stable order."""
    seen: list[type] = []
    todo = [root]
    while todo:
        cls = todo.pop(0)
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _run_label(args: tuple, kwargs: dict) -> str:
    driver = args[0]
    return f"{type(args[1]).__name__}/{driver.manager.name}"


def install(tracer: LayerTracer) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the undo function."""
    import repro.adversary.catalog  # noqa: F401 - defines every program class
    import repro.check.runner as check_runner
    import repro.mm.registry  # noqa: F401 - defines every manager class
    import repro.obs.export as obs_export
    import repro.obs.telemetry as telemetry
    import repro.parallel.engine as engine_module
    from repro.adversary.base import AdversaryProgram, ProgramView
    from repro.adversary.driver import ExecutionDriver
    from repro.exact.solver import GameSolver
    from repro.heap.heap import SimHeap
    from repro.heap.intervals import IntervalSet
    from repro.heap.kernel import BitmapKernel
    from repro.mm.base import ManagerContext, MemoryManager
    from repro.mm.budget import AbsoluteBudget, CompactionBudget
    from repro.obs.events import EventBus
    from repro.parallel.cache import ResultCache

    patches = Patches()
    wrap = tracer.wrap

    def on_class(cls: type, names: tuple[str, ...], layer: str, **options: Any) -> None:
        for name in names:
            if name in vars(cls):
                patches.set(cls, name, wrap(vars(cls)[name], layer, **options))

    # adversary.program: the program's own step logic, including the
    # move listener P_F registers (it runs from inside ctx.move).
    for cls in _subclasses(AdversaryProgram):
        on_class(cls, ("run",), PROGRAM)
    set_listener = ProgramView.set_move_listener

    def set_move_listener(view: ProgramView, listener: Any) -> None:
        if listener is not None:
            listener = wrap(listener, PROGRAM)
        set_listener(view, listener)

    patches.set(ProgramView, "set_move_listener", set_move_listener)

    # adversary.driver: per-request bookkeeping; ``run`` is the coarse
    # simulation span and hands back the heap's placement-search stats.
    def after_run(args: tuple, kwargs: dict, result: Any, elapsed: int) -> None:
        stats = args[0].heap.occupied.search_stats
        tracer.count("heap.search.searches", stats.searches)
        tracer.count("heap.search.index_hits", stats.index_hits)
        tracer.count("heap.search.gaps_examined", stats.gaps_examined)
        tracer.count("adversary.program.requests",
                     result.allocation_count + result.free_count)

    patches.set(ExecutionDriver, "run",
                wrap(ExecutionDriver.run, "adversary.run", after=after_run,
                     span="simulation", label=_run_label))
    on_class(ExecutionDriver, ("program_allocate", "program_free",
                               "program_mark"), DRIVER)

    # mm.*: the manager's compaction window, placement and notifications.
    for cls in _subclasses(MemoryManager):
        on_class(cls, ("prepare",), PREPARE)
        on_class(cls, ("place",), PLACE)
        on_class(cls, ("on_place", "on_free"), NOTIFY)

    # ctx.move is counted, not timed: its time belongs to the window.
    move = ManagerContext.move

    def counted_move(ctx: ManagerContext, object_id: int, new_address: int) -> Any:
        obj = move(ctx, object_id, new_address)
        tracer.count("mm.move.calls")
        tracer.count("mm.moved_words", obj.size)
        return obj

    patches.set(ManagerContext, "move", counted_move)

    def after_can_move(args: tuple, kwargs: dict, result: Any, elapsed: int) -> None:
        tracer.count("mm.budget.asked")
        if result:
            tracer.count("mm.budget.granted")

    for cls in (CompactionBudget, AbsoluteBudget):
        on_class(cls, ("charge_allocation", "charge_move"), BUDGET)
        on_class(cls, ("can_move",), BUDGET, after=after_can_move)

    # heap.mutate / heap.query.
    on_class(SimHeap, ("place", "free", "move"), MUTATE)
    on_class(SimHeap, ("is_free", "objects_in_range"), QUERY)
    on_class(IntervalSet, ("overlaps", "covers", "overlap_words",
                           "free_run_start", "find_first_gap",
                           "find_best_gap", "find_worst_gap"), QUERY)
    on_class(BitmapKernel, ("range_popcount", "range_popcounts",
                            "interval_arrays", "gap_arrays", "chunk_sums",
                            "chunk_occupancies"), QUERY)
    # SimHeap.free_gaps hands back IntervalSet.gaps, timed here.
    patches.set(IntervalSet, "gaps", tracer.wrap_iter(IntervalSet.gaps, QUERY))

    # obs.emit: EventBus.emit with every sink it fans out to.
    on_class(EventBus, ("emit",), EMIT)

    # obs.export: a recorded run's work outside the simulation — event
    # buffering set-up, events.jsonl, the manifest and its digest.
    def after_recorded(args: tuple, kwargs: dict, result: Any, elapsed: int) -> None:
        directory = Path(kwargs["directory"] if "directory" in kwargs else args[3])
        for name in (obs_export.EVENTS_FILENAME, obs_export.MANIFEST_FILENAME):
            path = directory / name
            if path.is_file():
                tracer.count("obs.export.bytes", path.stat().st_size)

    patches.set(telemetry, "run_recorded",
                wrap(telemetry.run_recorded, EXPORT, after=after_recorded))

    # parallel: engine runs, the worker entry point, the result cache.
    def after_engine(args: tuple, kwargs: dict, result: Any, elapsed: int) -> None:
        stats = args[0].stats
        tracer.count("parallel.engine.executed", stats.executed)
        tracer.count("parallel.cache.hits", stats.cache_hits)
        tracer.count("parallel.engine.slot_ns", stats.jobs * elapsed)

    patches.set(engine_module.ParallelEngine, "run",
                wrap(engine_module.ParallelEngine.run, ENGINE,
                     after=after_engine))
    patches.set(engine_module, "run_task",
                wrap(engine_module.run_task, TASK, span="task",
                     label=lambda a, k: f"{a[0].program}/{a[0].manager}"))
    on_class(ResultCache, ("get",), CACHE_GET)
    on_class(ResultCache, ("record_executions",), CACHE_RECORD)

    # check: reading a run directory back, then the checker replay.
    def after_checkers(args: tuple, kwargs: dict, result: Any, elapsed: int) -> None:
        tracer.count("check.events", result.event_count)

    patches.set(obs_export, "load_run", wrap(obs_export.load_run, READ))
    patches.set(check_runner, "run_checkers",
                wrap(check_runner.run_checkers, CHECKERS, after=after_checkers))

    # exact: one attractor solve per probed heap size.
    def after_solve(args: tuple, kwargs: dict, result: Any, elapsed: int) -> None:
        stats = result.stats
        tracer.count("exact.orbits", stats.orbits_visited)
        tracer.count("exact.edges", stats.edges)
        tracer.count("exact.tt_hits", stats.tt_safe_hits + stats.tt_win_hits)
        peak = tracer.counters.get("exact.peak_frontier", 0)
        tracer.counters["exact.peak_frontier"] = max(peak, stats.peak_frontier)

    patches.set(GameSolver, "solve",
                wrap(GameSolver.solve, PROBE, after=after_solve, span="probe",
                     label=lambda a, k: f"H={a[1]}"))
    return patches.undo
