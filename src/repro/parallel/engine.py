"""The parallel execution engine: fan simulation grids over processes.

Every (params, manager, program) grid point in this repository is an
independent, deterministic simulation — the embarrassingly-parallel
shape.  :class:`ParallelEngine` exploits it without changing any
result:

* tasks are checked against the :class:`~repro.parallel.cache.ResultCache`
  first (when configured); hits skip execution entirely;
* misses are executed either in-process (``jobs <= 1`` — no pool, no
  pickling, bit-identical to the historical serial code path) or on a
  ``ProcessPoolExecutor`` with a deterministic chunk size, each worker
  running its simulation with a private event bus;
* results come back **in submission order** regardless of which worker
  finished first, so CSV output, sweep rows and event digests are
  byte-identical across ``--jobs`` values — anchored by the canonical
  event digest each task computes (see ``tests/parallel``).

The pool prefers the ``fork`` start method (cheap on Linux; no
re-import per worker) and falls back to the platform default where
``fork`` is unavailable.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence, Union

from ..obs.trace import MAIN_LANE, Span, Tracer, active_tracer
from .cache import ResultCache
from .tasks import SimTask, TaskResult, run_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import BaseContext

__all__ = ["ParallelEngine", "EngineStats", "default_jobs"]


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the cores this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class EngineStats:
    """What one :meth:`ParallelEngine.run` call actually did."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    #: SHA-256 over the per-task event digests in submission order —
    #: one value characterizing the whole grid, identical across
    #: ``jobs`` values and across cold/warm cache runs.
    grid_digest: str = ""

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary (BENCH_JSON / CLI reporting)."""
        return {
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
            "grid_digest": self.grid_digest,
        }


@dataclass
class ParallelEngine:
    """Process-pool fan-out with result caching and ordered merge.

    Parameters
    ----------
    jobs:
        Worker processes; ``<= 1`` executes in-process with no pool.
    cache_dir:
        Optional on-disk result cache.  When set, every executed task is
        also archived as a ``repro check``-able run directory and
        logged in the cache's execution manifest.
    chunk_size:
        Tasks per pool dispatch; ``None`` picks a deterministic value
        balancing dispatch overhead against tail latency.
    tracer:
        Optional parent :class:`~repro.obs.trace.Tracer`.  When enabled,
        every executed task runs under a private worker tracer whose
        spans ship back through ``TaskResult.trace_spans`` and are
        adopted here — one lane per worker process — so a parallel
        sweep's timeline renders next to a serial run's.  Digest-neutral
        like all tracing.

    Serial and parallel runs are byte-identical: results merge in task
    order, and ``tests/parallel/test_engine.py`` pins the grid digests
    equal at jobs 1, 2 and 4.
    """

    jobs: int = 1
    cache_dir: "Union[str, os.PathLike[str], None]" = None
    chunk_size: int | None = None
    tracer: "Tracer | None" = None
    #: Stats of the most recent :meth:`run` (reset each call).
    stats: EngineStats = field(default_factory=EngineStats)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.cache = (ResultCache(self.cache_dir)
                      if self.cache_dir is not None else None)
        self.tracer = active_tracer(self.tracer)

    def run(self, tasks: Sequence[SimTask]) -> list[TaskResult]:
        """Execute (or recall) every task; results in submission order."""
        start = time.perf_counter()
        tasks = list(tasks)
        tracer = self.tracer
        engine_span = (tracer.begin_unchecked("engine.run",
                                              {"tasks": len(tasks),
                                               "jobs": self.jobs})
                       if tracer is not None else None)
        evictions_before = (self.cache.evictions
                            if self.cache is not None else 0)
        results: list[TaskResult | None] = [None] * len(tasks)
        pending: list[SimTask] = []
        pending_slots: list[int] = []
        for slot, task in enumerate(tasks):
            cached = self.cache.get(task) if self.cache is not None else None
            if cached is not None:
                results[slot] = cached
            else:
                pending.append(task)
                pending_slots.append(slot)

        executed: list[TaskResult] = []
        if pending:
            record_root = (str(self.cache.directory)
                           if self.cache is not None else None)
            executed = self._execute(pending, record_root)
            for slot, result in zip(pending_slots, executed):
                results[slot] = result
            if self.cache is not None:
                self.cache.record_executions(executed)

        if tracer is not None:
            self._adopt_traces(tracer, executed, engine_span)

        # The merge loop filled every slot: cache hits up front, executed
        # results by pending_slots.
        merged = [result for result in results if result is not None]
        grid = hashlib.sha256()
        for result in merged:
            grid.update(result.event_digest.encode())
        evictions = (self.cache.evictions - evictions_before
                     if self.cache is not None else 0)
        if tracer is not None and engine_span is not None:
            tracer.end(engine_span)
        self.stats = EngineStats(
            total=len(tasks),
            executed=len(executed),
            cache_hits=len(tasks) - len(pending),
            cache_misses=len(pending),
            cache_evictions=evictions,
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - start,
            grid_digest=grid.hexdigest(),
        )
        return merged

    # Internal ---------------------------------------------------------------

    def _adopt_traces(self, tracer: Tracer, executed: list[TaskResult],
                      engine_span: Span | None) -> None:
        """Re-root worker span trees locally, one lane per worker pid.

        Lane ids are assigned by pid order of first appearance (1..N);
        the in-process path (``jobs <= 1``) executes in the parent pid,
        which still gets its own worker lane so serial and parallel
        sweeps render uniformly.
        """
        lanes: dict[int, int] = {}
        for result in executed:
            if not result.trace_spans:
                continue
            pid = result.worker_pid or 0
            lane = lanes.setdefault(pid, MAIN_LANE + 1 + len(lanes))
            tracer.adopt(result.trace_spans, lane=lane, parent=engine_span)

    def _execute(self, pending: list[SimTask],
                 record_root: str | None) -> list[TaskResult]:
        worker = partial(run_task, record_root=record_root,
                         trace=self.tracer is not None)
        if self.jobs <= 1 or len(pending) == 1:
            return [worker(task) for task in pending]
        workers = min(self.jobs, len(pending))
        chunk = self.chunk_size
        if chunk is None:
            # Deterministic sharding: about four dispatches per worker,
            # which amortizes pickling without starving the tail.
            chunk = max(1, len(pending) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            # Executor.map preserves submission order by construction.
            return list(pool.map(worker, pending, chunksize=chunk))


def _pool_context() -> "BaseContext":
    """Prefer fork (cheap, no re-import); fall back where unavailable."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX
