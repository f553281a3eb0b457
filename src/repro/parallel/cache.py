"""The on-disk result cache and its run manifest.

Layout of a cache directory::

    <cache_dir>/
      manifest.jsonl        # one line per *executed* simulation, appended
      <key>/                # one entry per distinct task
        manifest.json       # standard run manifest (repro check works)
        events.tape         # the run's event tape (header + raw columns)
        result.json         # TaskResult record (written last = complete)

Entries written before the tape was stored hold ``events.jsonl`` in
place of ``events.tape``; :func:`repro.obs.export.load_run` reads
either, so they stay checkable and keep their keys (the tape changed
no digest, so :data:`CACHE_SCHEMA` did not move).

The key is :func:`task_digest`: SHA-256 over the canonical JSON of the
task spec (``BoundParams`` triple, manager name, program name +
options) together with the code version — ``repro.__version__`` plus
:data:`CACHE_SCHEMA` — so a release that changes simulator semantics
invalidates every stale entry instead of replaying it.

Because every entry doubles as a recorded run directory, ``repro check
<cache_dir>/<key>`` re-verifies a cached point end to end (invariant
checkers plus the stored ``event_digest``), and ``repro report``
renders it.  The top-level ``manifest.jsonl`` counts real executions:
a warm re-run of a grid leaves it untouched, which is exactly what the
equivalence tests assert.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Union

from .tasks import SimTask, SolveResult, SolveTask, TaskResult

_AnyTask = Union[SimTask, SolveTask]
_AnyResult = Union[TaskResult, SolveResult]

__all__ = [
    "CACHE_SCHEMA",
    "RESULT_FILENAME",
    "CACHE_MANIFEST_FILENAME",
    "task_digest",
    "ResultCache",
]

#: Bump whenever simulator semantics change in a way that invalidates
#: previously cached results without a package-version bump.
CACHE_SCHEMA = 1

RESULT_FILENAME = "result.json"
CACHE_MANIFEST_FILENAME = "manifest.jsonl"

_PathLike = Union[str, Path]


def _code_version() -> str:
    from .. import __version__

    return f"{__version__}+cache{CACHE_SCHEMA}"


def task_digest(task: _AnyTask, *, code_version: str | None = None) -> str:
    """The cache key: SHA-256 of (task spec, code version)."""
    record = task.to_dict()
    record["code_version"] = (code_version if code_version is not None
                              else _code_version())
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Digest-keyed persistence of :class:`TaskResult` records.

    The cache never *writes* entry directories itself — workers do, via
    :func:`repro.parallel.tasks.run_task` with ``record_root`` — it
    resolves keys, reads completed entries back, and appends the
    execution manifest from the parent process (one writer, no append
    races).

    ``result_type`` selects the record class entries decode into:
    :class:`~repro.parallel.tasks.TaskResult` (simulations, the
    default) or :class:`~repro.parallel.tasks.SolveResult` (exact-game
    solves).  Any type with ``from_dict`` / a ``task`` field /
    ``event_digest`` / ``event_count`` / ``wall_seconds`` fits; task
    specs embed a ``kind`` so the two families never share a key even
    in one directory.
    """

    def __init__(self, directory: _PathLike,
                 result_type: "type[TaskResult] | type[SolveResult]"
                 = TaskResult) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.result_type = result_type
        #: Lookup counters for this instance's lifetime.  ``evictions``
        #: counts entries *deleted* by :meth:`get` because they were
        #: unreadable or did not match their key (tampering / digest
        #: collision); a plain absent entry is only a miss.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def key_for(self, task: _AnyTask) -> str:
        """The task's cache key."""
        return task_digest(task)

    def entry_dir(self, task: _AnyTask) -> Path:
        """Where the task's run directory lives (existing or not)."""
        return self.directory / self.key_for(task)

    def get(self, task: _AnyTask) -> _AnyResult | None:
        """The cached result, or None on a miss / incomplete entry.

        Unreadable or mismatched entries are *evicted* (the entry
        directory is deleted) so the subsequent execution can repopulate
        the slot instead of colliding with the stale files forever.
        """
        entry = self.entry_dir(task)
        path = entry / RESULT_FILENAME
        if not path.is_file():
            self.misses += 1
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            result = self.result_type.from_dict(record)
        except (ValueError, KeyError, TypeError):
            self._evict(entry)
            return None
        if result.task != task:
            # A digest collision or a tampered entry; evict rather than
            # return someone else's numbers.
            self._evict(entry)
            return None
        self.hits += 1
        return result

    def _evict(self, entry: Path) -> None:
        """Delete one corrupt/mismatched entry directory, counting it."""
        import shutil

        shutil.rmtree(entry, ignore_errors=True)
        self.evictions += 1
        self.misses += 1

    # The execution manifest ------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """The append-only execution log."""
        return self.directory / CACHE_MANIFEST_FILENAME

    def record_executions(self, results: "list[TaskResult] | list[SolveResult]") -> None:
        """Append one manifest line per freshly executed result."""
        if not results:
            return
        with self.manifest_path.open("a", encoding="utf-8") as handle:
            for result in results:
                handle.write(json.dumps({
                    "key": self.key_for(result.task),
                    "task": result.task.to_dict(),
                    "event_digest": result.event_digest,
                    "event_count": result.event_count,
                    "wall_seconds": result.wall_seconds,
                    "created_unix": time.time(),
                }, sort_keys=True))
                handle.write("\n")

    def execution_count(self) -> int:
        """How many simulations this cache directory has ever executed."""
        if not self.manifest_path.is_file():
            return 0
        with self.manifest_path.open("r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())

    def entry_dirs(self) -> list[Path]:
        """Every complete entry directory, sorted by key."""
        return sorted(
            child for child in self.directory.iterdir()
            if child.is_dir() and (child / RESULT_FILENAME).is_file()
        )
