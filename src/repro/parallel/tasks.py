"""Task specifications and the worker entry point.

A :class:`SimTask` is the picklable, JSON-able description of one grid
point: parameters, manager name, program short name (see
:mod:`repro.adversary.catalog`) and program options.  Workers receive
tasks — never live objects — rebuild the configuration from the
registries, run it with a private :class:`~repro.obs.events.EventBus`,
and ship back a :class:`TaskResult`: every scalar the analysis layer
needs plus the canonical event-stream digest that anchors
serial-vs-parallel equivalence, computed once at run end from the bus's
:class:`~repro.obs.tape.EventTape` (equal to
:func:`repro.check.determinism.event_stream_digest` of the same
events).

:func:`run_task` is the one function executed in worker processes; it
must stay importable at module top level so the process pool can pickle
references to it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..adversary.catalog import make_program
from ..adversary.driver import ExecutionResult, run_execution
from ..core.params import BoundParams
from ..heap.metrics import HeapMetrics
from ..mm.budget import BudgetSnapshot
from ..mm.registry import create_manager
from ..obs.events import EventBus
from ..obs.tape import EventTape
from ..obs.trace import Tracer

__all__ = [
    "SimTask",
    "TaskResult",
    "SolveTask",
    "SolveResult",
    "run_task",
    "run_solve_task",
]


@dataclass(frozen=True)
class SimTask:
    """One independent, deterministic simulation to run.

    ``program_options`` is a sorted tuple of ``(name, value)`` pairs
    passed to the program factory (e.g. ``density_exponent``); values
    must be JSON-serializable scalars so the task can be hashed into a
    cache key and rebuilt bit-identically in a worker.
    """

    live_space: int
    max_object: int
    compaction_divisor: float | None
    manager: str
    program: str
    program_options: tuple[tuple[str, Any], ...] = ()
    #: Occupancy backend ("reference" or "bitmap").  Resolved at build
    #: time — not in the worker — so ``REPRO_KERNEL`` set in the parent
    #: applies even when workers are spawned with a clean environment,
    #: and the cache key distinguishes backends (their digests must be
    #: equal, but their wall times must not be conflated).
    kernel: str = "reference"

    @classmethod
    def build(cls, params: BoundParams, manager: str, program: str,
              kernel: str | None = None, **options: Any) -> "SimTask":
        """The convenient constructor: params object + keyword options."""
        from ..heap.kernel import resolve_kernel

        return cls(
            live_space=params.live_space,
            max_object=params.max_object,
            compaction_divisor=params.compaction_divisor,
            manager=manager,
            program=program,
            program_options=tuple(sorted(options.items())),
            kernel=resolve_kernel(kernel),
        )

    @property
    def params(self) -> BoundParams:
        """The task's :class:`~repro.core.params.BoundParams`."""
        return BoundParams(self.live_space, self.max_object,
                           self.compaction_divisor)

    def options_dict(self) -> dict[str, Any]:
        """``program_options`` as a keyword dict."""
        return dict(self.program_options)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready encoding (tuples become lists)."""
        record = asdict(self)
        record["program_options"] = [list(pair)
                                     for pair in self.program_options]
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SimTask":
        """Inverse of :meth:`to_dict`."""
        divisor = record["compaction_divisor"]
        return cls(
            live_space=int(record["live_space"]),
            max_object=int(record["max_object"]),
            compaction_divisor=float(divisor) if divisor is not None else None,
            manager=str(record["manager"]),
            program=str(record["program"]),
            program_options=tuple(
                (str(name), value)
                for name, value in record.get("program_options", ())
            ),
            kernel=str(record.get("kernel", "reference")),
        )


@dataclass(frozen=True)
class TaskResult:
    """Everything a grid cell produces, in picklable/JSON-able form.

    Carries the full scalar surface of
    :class:`~repro.adversary.driver.ExecutionResult` (plus the budget
    snapshot and heap metrics as plain dicts) so cache hits can
    reconstruct a faithful result object without re-running anything,
    and the canonical ``event_digest`` so byte-identical behaviour
    across ``--jobs`` values is checkable.
    """

    task: SimTask
    program_name: str
    manager_name: str
    heap_size: int
    live_peak: int
    total_allocated: int
    total_freed: int
    total_moved: int
    allocation_count: int
    free_count: int
    move_count: int
    budget: dict
    metrics: dict
    event_digest: str
    event_count: int
    wall_seconds: float = field(compare=False)
    from_cache: bool = field(default=False, compare=False)
    #: Span records captured inside the worker (``Span.to_dict`` form),
    #: shipped back for the parent tracer to adopt; None when tracing
    #: was off.  Never persisted to the cache: a cache hit replays the
    #: result, not the timing.
    trace_spans: "list[dict[str, Any]] | None" = field(
        default=None, compare=False)
    #: The worker process that executed the task (lane attribution).
    worker_pid: int | None = field(default=None, compare=False)

    @property
    def waste_factor(self) -> float:
        """``HS / M`` — the paper's figure of merit."""
        return self.heap_size / self.task.live_space

    def to_execution_result(self) -> ExecutionResult:
        """Rebuild a faithful :class:`ExecutionResult`."""
        return ExecutionResult(
            params=self.task.params,
            program_name=self.program_name,
            manager_name=self.manager_name,
            heap_size=self.heap_size,
            live_peak=self.live_peak,
            total_allocated=self.total_allocated,
            total_freed=self.total_freed,
            total_moved=self.total_moved,
            allocation_count=self.allocation_count,
            free_count=self.free_count,
            move_count=self.move_count,
            budget=BudgetSnapshot(**self.budget),
            metrics=HeapMetrics(**self.metrics),
            wall_seconds=self.wall_seconds,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready encoding (cache ``result.json`` schema).

        Trace fields are transport-only and omitted: a cached entry
        must not replay stale timings as if they were fresh.
        """
        record = asdict(self)
        record["task"] = self.task.to_dict()
        record.pop("trace_spans", None)
        record.pop("worker_pid", None)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TaskResult":
        """Inverse of :meth:`to_dict`; always marks the result cached."""
        return cls(
            task=SimTask.from_dict(record["task"]),
            program_name=str(record["program_name"]),
            manager_name=str(record["manager_name"]),
            heap_size=int(record["heap_size"]),
            live_peak=int(record["live_peak"]),
            total_allocated=int(record["total_allocated"]),
            total_freed=int(record["total_freed"]),
            total_moved=int(record["total_moved"]),
            allocation_count=int(record["allocation_count"]),
            free_count=int(record["free_count"]),
            move_count=int(record["move_count"]),
            budget=dict(record["budget"]),
            metrics=dict(record["metrics"]),
            event_digest=str(record["event_digest"]),
            event_count=int(record["event_count"]),
            wall_seconds=float(record["wall_seconds"]),
            from_cache=True,
        )


@dataclass(frozen=True)
class SolveTask:
    """One exact-game solve: parameters in, the game value out.

    The solve analogue of :class:`SimTask` — a picklable, JSON-able
    spec that hashes into a :class:`~repro.parallel.cache.ResultCache`
    key, so repeated ``repro solve`` invocations replay the cached
    value instead of re-running the attractor.  The search strategy is
    deliberately *not* part of the spec: it changes wall time, never the
    value, and must not fragment the cache.
    """

    live_bound: int
    max_object: int
    power_of_two_sizes: bool = True
    move_budget: int | None = None

    def __post_init__(self) -> None:
        if self.live_bound < 1:
            raise ValueError("live_bound must be at least 1")
        if not 1 <= self.max_object <= self.live_bound:
            raise ValueError("need 1 <= max_object <= live_bound")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready encoding; ``kind`` keeps solve keys disjoint from
        simulation keys in a shared cache directory."""
        return {
            "kind": "exact-solve",
            "live_bound": self.live_bound,
            "max_object": self.max_object,
            "power_of_two_sizes": self.power_of_two_sizes,
            "move_budget": self.move_budget,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SolveTask":
        """Inverse of :meth:`to_dict`."""
        budget = record.get("move_budget")
        return cls(
            live_bound=int(record["live_bound"]),
            max_object=int(record["max_object"]),
            power_of_two_sizes=bool(record.get("power_of_two_sizes", True)),
            move_budget=int(budget) if budget is not None else None,
        )


@dataclass(frozen=True)
class SolveResult:
    """The outcome of one :class:`SolveTask`, cache-shaped.

    ``probes`` is the deterministic ``(heap_words, program_wins)``
    sequence the bracketed search actually ran; ``event_digest`` hashes
    the task, value and probe verdicts (not timings, per-phase ones
    included), so identical inputs produce identical digests run after
    run — the same determinism anchor the simulation tasks carry.
    """

    task: SolveTask
    minimum_heap_words: int
    probes: tuple[tuple[int, bool], ...]
    stats: tuple[dict, ...]
    event_digest: str
    event_count: int
    wall_seconds: float = field(compare=False)
    from_cache: bool = field(default=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready encoding (cache ``result.json`` schema)."""
        return {
            "task": self.task.to_dict(),
            "minimum_heap_words": self.minimum_heap_words,
            "probes": [list(pair) for pair in self.probes],
            "stats": [dict(entry) for entry in self.stats],
            "event_digest": self.event_digest,
            "event_count": self.event_count,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "SolveResult":
        """Inverse of :meth:`to_dict`; always marks the result cached."""
        return cls(
            task=SolveTask.from_dict(record["task"]),
            minimum_heap_words=int(record["minimum_heap_words"]),
            probes=tuple(
                (int(heap), bool(wins)) for heap, wins in record["probes"]
            ),
            stats=tuple(dict(entry) for entry in record["stats"]),
            event_digest=str(record["event_digest"]),
            event_count=int(record["event_count"]),
            wall_seconds=float(record["wall_seconds"]),
            from_cache=True,
        )


def solve_digest(task: SolveTask, value: int,
                 probes: tuple[tuple[int, bool], ...]) -> str:
    """The canonical digest over a solve's deterministic surface."""
    import json

    payload = json.dumps(
        {"task": task.to_dict(), "minimum_heap_words": value,
         "probes": [list(pair) for pair in probes]},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def run_solve_task(task: SolveTask, search: str = "auto") -> SolveResult:
    """Execute one exact solve and package the cacheable result.

    The solve runs in this process on the solver's one serial explorer;
    ``search`` picks the heap-size walk and never changes the value.
    """
    import time

    from ..exact.solver import GameSolver

    started = time.perf_counter()
    solver = GameSolver(
        task.live_bound, task.max_object,
        power_of_two_sizes=task.power_of_two_sizes,
        move_budget=task.move_budget,
    )
    value = solver.minimum_heap_words(search=search)
    wall = time.perf_counter() - started
    probes = tuple(
        (entry.heap_words, entry.program_wins) for entry in solver.history
    )
    stats = tuple(entry.as_dict() for entry in solver.history)
    return SolveResult(
        task=task,
        minimum_heap_words=value,
        probes=probes,
        stats=stats,
        event_digest=solve_digest(task, value, probes),
        event_count=sum(entry.orbits_visited for entry in solver.history),
        wall_seconds=wall,
    )


def _result_from_execution(task: SimTask, result: ExecutionResult,
                           tape: EventTape) -> TaskResult:
    return TaskResult(
        task=task,
        program_name=result.program_name,
        manager_name=result.manager_name,
        heap_size=result.heap_size,
        live_peak=result.live_peak,
        total_allocated=result.total_allocated,
        total_freed=result.total_freed,
        total_moved=result.total_moved,
        allocation_count=result.allocation_count,
        free_count=result.free_count,
        move_count=result.move_count,
        budget=asdict(result.budget),
        metrics=asdict(result.metrics),
        event_digest=tape.digest(),
        event_count=len(tape),
        wall_seconds=result.wall_seconds,
    )


def _task_label(task: SimTask) -> str:
    return f"task:{task.manager}/{task.program}"


def run_task(task: SimTask, record_root: str | None = None,
             trace: bool = False) -> TaskResult:
    """Execute one task; the worker-process entry point.

    Every run gets its own :class:`~repro.obs.events.EventBus`, whose
    tape yields the canonical event digest whether or not the run is
    archived; an unarchived run has no subscribers, so it builds no
    event objects at all.  With ``record_root`` set, the run is
    additionally persisted as a standard ``repro check``-able run
    directory under ``<record_root>/<cache key>/`` (manifest.json +
    events.tape) plus a ``result.json`` the cache reads back — written
    last, so a directory with ``result.json`` is always complete.

    With ``trace=True`` the execution runs under a private (coarse)
    :class:`~repro.obs.trace.Tracer`; the resulting span records travel
    back in ``TaskResult.trace_spans`` for the parent to adopt.
    ``perf_counter_ns`` is CLOCK_MONOTONIC on Linux, shared across
    forked workers, so worker timestamps land on the parent's axis.

    Everything reachable from here runs in a forked worker, and the
    returned :class:`TaskResult` is cached under the task's cache key,
    so reachable code must not read inputs the key omits:
    ``TestTaskDigest`` pins every task field into the key, and
    ``tests/parallel/test_env_reads.py`` holds every environment read
    under ``src/repro`` to ``REPRO_KERNEL``, which ``SimTask.kernel``
    carries.
    """
    params = task.params
    program = make_program(task.program, params, **task.options_dict())
    manager = create_manager(task.manager, params)
    tracer = Tracer() if trace else None
    task_span = (tracer.begin_unchecked(_task_label(task), {"pid": os.getpid()})
                 if tracer is not None else None)

    if record_root is None:
        bus = EventBus()
        if hasattr(program, "bus"):
            program.bus = bus
        result = run_execution(params, program, manager, observer=bus,
                               tracer=tracer, kernel=task.kernel)
        return _finish_task(task, result, bus.tape, tracer, task_span)

    from .cache import RESULT_FILENAME, task_digest  # local: avoid cycle
    from ..obs.telemetry import run_recorded

    key = task_digest(task)
    target = Path(record_root) / key
    drivers: list[Any] = []
    result = run_recorded(
        params, program, manager, target,
        extra_config={"task": task.to_dict(), "cache_key": key},
        on_driver=drivers.append,
        tracer=tracer,
        kernel=task.kernel,
    )
    # The tape memoizes its digest: this is the manifest's, not a rehash.
    tape = drivers[0].observer.tape
    task_result = _finish_task(task, result, tape, tracer, task_span)
    payload = task_result.to_dict()
    payload["cache_key"] = key
    _write_json_atomic(target / RESULT_FILENAME, payload)
    return task_result


def _finish_task(task: SimTask, result: ExecutionResult,
                 tape: EventTape, tracer: "Tracer | None",
                 task_span: Any) -> TaskResult:
    """Close the task span and attach the serialized trace, if any."""
    task_result = _result_from_execution(task, result, tape)
    if tracer is None:
        return task_result
    if task_span is not None:
        tracer.end(task_span)
    from dataclasses import replace

    return replace(task_result, trace_spans=tracer.to_dicts(),
                   worker_pid=os.getpid())


def _write_json_atomic(path: Path, payload: dict[str, Any]) -> None:
    """Write JSON via a same-directory temp file + rename."""
    import json
    import os

    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
