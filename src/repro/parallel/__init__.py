"""Parallel experiment execution: process-pool fan-out + result cache.

The sweep/experiment/figure grids are embarrassingly parallel — every
(params, manager, program) point is an independent deterministic
simulation.  This package runs them that way:

* :class:`~repro.parallel.tasks.SimTask` /
  :class:`~repro.parallel.tasks.TaskResult` — the picklable task and
  result records (results carry the canonical event digest);
* :class:`~repro.parallel.engine.ParallelEngine` — cache check →
  process-pool fan-out → ordered merge; serial and parallel runs of
  the same grid are byte-identical;
* :class:`~repro.parallel.cache.ResultCache` — on-disk entries keyed by
  a digest of (task spec, code version); each entry doubles as a
  ``repro check``-able run directory.

See ``docs/performance.md`` for the architecture and the cache-key
semantics.
"""

from .cache import CACHE_SCHEMA, ResultCache, task_digest
from .engine import EngineStats, ParallelEngine, default_jobs
from .tasks import SimTask, TaskResult, run_task

__all__ = [
    "CACHE_SCHEMA",
    "EngineStats",
    "ParallelEngine",
    "ResultCache",
    "SimTask",
    "TaskResult",
    "default_jobs",
    "run_task",
    "task_digest",
]
