"""Vectorized occupancy queries over the interval set (the default backend).

The simulator answers every occupancy question from
:class:`~repro.heap.intervals.IntervalSet` — exact, pure Python, and
the right authority for placement search (the gap index already makes
those O(log k)).  What stays expensive in pure Python are the *bulk*
questions the compacting managers ask: "how many live words in each of
these thousands of candidate windows?", "what is every chunk's
occupancy?", "which gap survives clipping against the region being
evacuated?".  Mesh and Nofl answer exactly these with bulk occupancy
operations; :class:`BitmapKernel` answers them with numpy, so a whole
candidate set is costed in a handful of array operations.

**No shadow state.**  The kernel holds nothing but a reference to its
heap's interval set.  Each bulk query lifts the sorted ``(starts,
ends)`` coordinate tables into int64 arrays through
:meth:`IntervalSet.interval_lists` (one memcpy each) and reduces to
prefix sums of interval lengths plus ``np.searchsorted``: the live
words below a point ``p`` are the lengths of every interval starting at
or below ``p``, minus the part of the last such interval that lies
above ``p``.  Heap mutations never touch the kernel, so a run that never
asks a bulk question pays nothing for it, in time or in memory.  The
interval set and its gap index stay the only occupancy state, so
``SearchStats``, ``max_gap_hint`` and the budget ledger's exact integer
arithmetic are untouched by construction; the kernel only accelerates
queries whose *answers* are proven identical (see
``tests/heap/test_kernel.py`` and the digest-parity matrix in
``tests/check/test_kernel_parity.py``).

Backend selection: an explicit ``kernel=`` (``--kernel`` on the CLI),
then ``REPRO_KERNEL``, then ``bitmap`` when numpy imports and
``reference`` otherwise; or hand ``SimHeap(kernel=...)`` a kernel
instance directly.  The backend name is part of every result-cache key,
so entries written by a run that resolved to ``reference`` (any run
without numpy, and default runs from before ``bitmap`` became the
default) are not reused by a ``bitmap`` run; their digests are
identical, only the key differs.  The reference backend has **no**
numpy dependency — this module imports (and the whole suite runs)
without numpy installed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Protocol

try:  # numpy is optional: the reference backend must run without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-free CI job
    _np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from .intervals import IntervalSet

__all__ = [
    "HeapKernel",
    "BitmapKernel",
    "KERNEL_ENV_VAR",
    "KERNEL_NAMES",
    "numpy_available",
    "resolve_kernel",
    "make_kernel",
]

#: Environment variable selecting the default backend.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: The valid backend names, in CLI listing order.
KERNEL_NAMES = ("reference", "bitmap")


def numpy_available() -> bool:
    """Whether the bitmap backend can be constructed in this process."""
    return _np is not None


def resolve_kernel(name: str | None = None) -> str:
    """The effective backend name: explicit > ``REPRO_KERNEL`` > numpy.

    Without an explicit name or ``REPRO_KERNEL``, the backend is
    ``bitmap`` when numpy is importable and ``reference`` otherwise.
    Raises ``ValueError`` on an unknown name (from either source), so a
    typo in the environment fails loudly instead of silently running
    the other backend.

    Cache-key contract: the env read below is reachable from cached
    task results, which is sound only because ``SimTask.build`` resolves
    the kernel parent-side into ``SimTask.kernel`` — part of the task
    digest.  ``tests/parallel/test_env_reads.py`` fails on any other
    environment read under ``src/repro``.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or (
            "bitmap" if _np is not None else "reference"
        )
    if name not in KERNEL_NAMES:
        known = ", ".join(KERNEL_NAMES)
        raise ValueError(f"unknown heap kernel {name!r}; known: {known}")
    return name


def make_kernel(name: str | None = None) -> "HeapKernel | None":
    """Build the kernel instance for a resolved backend name.

    ``None`` (the reference backend) means "no kernel": the heap answers
    every query in pure Python.  Requesting ``bitmap`` without numpy
    installed raises with an actionable message rather than degrading
    silently — digests are backend-identical, but a user who asked for
    the fast backend should not quietly not get it.
    """
    resolved = resolve_kernel(name)
    if resolved == "reference":
        return None
    if _np is None:
        raise RuntimeError(
            "heap kernel 'bitmap' needs numpy, which is not installed; "
            "use the reference backend (or unset REPRO_KERNEL)"
        )
    return BitmapKernel()


class HeapKernel(Protocol):
    """What :class:`~repro.heap.heap.SimHeap` needs of a kernel.

    The heap attaches its interval set once, at construction, and never
    calls the kernel again.  Implementations must answer every query
    with values *identical* to the pure-Python reference computation —
    the differential suites and the replay digest matrix enforce this.
    """

    name: str

    def attach(self, intervals: "IntervalSet") -> None:
        """Answer every later query from ``intervals``."""
        ...


class BitmapKernel:
    """Bulk occupancy queries over one interval set's coordinate tables.

    It keeps no bitmap; the backend name ``bitmap`` stays because run
    manifests and result-cache keys record it.
    """

    name = "bitmap"

    __slots__ = ("_intervals",)

    def __init__(self) -> None:
        if _np is None:  # pragma: no cover - guarded by make_kernel
            raise RuntimeError("BitmapKernel requires numpy")
        self._intervals: IntervalSet | None = None

    def attach(self, intervals: "IntervalSet") -> None:
        """Bind the kernel to the interval set of one heap."""
        if self._intervals is not None:
            raise ValueError("kernel is already attached to a heap")
        self._intervals = intervals

    def _tables(self) -> tuple["np.ndarray", "np.ndarray"]:
        """The interval set's ``(starts, ends)`` as int64 arrays."""
        if self._intervals is None:
            raise RuntimeError("kernel is not attached to a heap")
        starts, ends = self._intervals.interval_lists()
        return (_np.frombuffer(starts, dtype=_np.int64),
                _np.frombuffer(ends, dtype=_np.int64))

    def _covered_below(self, points: "np.ndarray") -> "np.ndarray":
        """Live words strictly below each (non-negative) point."""
        starts, ends = self._tables()
        prefix = _np.zeros(len(starts) + 1, dtype=_np.int64)
        _np.cumsum(ends - starts, out=prefix[1:])
        # closing[i] is the end of interval i - 1 (0 before the first),
        # so it is never above a non-negative point when i == 0.
        closing = _np.concatenate((_np.zeros(1, dtype=_np.int64), ends))
        index = _np.searchsorted(starts, points, side="right")
        return prefix[index] - _np.maximum(closing[index] - points, 0)

    def range_popcount(self, start: int, end: int) -> int:
        """Live words in ``[start, end)``."""
        if end <= start:
            return 0
        counts = self.range_popcounts(_np.array([start], dtype=_np.int64),
                                      _np.array([end], dtype=_np.int64))
        return int(counts[0])

    def range_popcounts(
        self, starts: "np.ndarray", ends: "np.ndarray"
    ) -> "np.ndarray":
        """Live words in each ``[starts[i], ends[i])``."""
        # asarray: the managers already pass int64 arrays — no copy.
        lo = _np.asarray(starts, dtype=_np.int64)
        hi = _np.asarray(ends, dtype=_np.int64)
        # One search over both endpoint batches halves the numpy
        # dispatch overhead on the hot per-decision call.
        below = self._covered_below(_np.concatenate((hi, lo)))
        return below[:len(hi)] - below[len(hi):]

    def interval_arrays(
        self, limit: int
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """(starts, ends) of the maximal live runs inside ``[0, limit)``."""
        starts, ends = self._tables()
        if len(ends) and ends[-1] > limit:
            inside = int(_np.searchsorted(starts, limit, side="left"))
            starts = starts[:inside]
            ends = _np.minimum(ends[:inside], limit)
        return starts, ends

    def gap_arrays(self, limit: int) -> tuple["np.ndarray", "np.ndarray"]:
        """(starts, ends) of the maximal free runs inside ``[0, limit)``.

        The complement of :meth:`interval_arrays`: a gap opens at 0 and
        at each interval end and closes at the next interval start (or
        at ``limit``).  Intervals never touch, so only the first and the
        last of these candidate gaps can be empty.
        """
        starts, ends = self.interval_arrays(limit)
        gap_starts = _np.concatenate((_np.zeros(1, dtype=_np.int64), ends))
        gap_ends = _np.concatenate(
            (starts, _np.array([limit], dtype=_np.int64))
        )
        keep = gap_ends > gap_starts
        return gap_starts[keep], gap_ends[keep]

    def chunk_sums(self, chunk_size: int, limit: int) -> "np.ndarray":
        """Live words per ``chunk_size``-aligned chunk meeting ``[0, limit)``.

        Index ``k`` of the returned array is the occupancy of chunk
        ``[k * chunk_size, (k + 1) * chunk_size)``, zeros included.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        count = -(-max(limit, 0) // chunk_size)
        bounds = _np.arange(count + 1, dtype=_np.int64) * chunk_size
        return _np.diff(self._covered_below(bounds))

    def chunk_occupancies(self, chunk_size: int, limit: int) -> dict[int, int]:
        """Live words per touched ``chunk_size``-aligned chunk index.

        Matches :meth:`repro.heap.chunks.ChunkPartition.occupancies`:
        keys ascending, only chunks holding at least one live word.
        """
        sums = self.chunk_sums(chunk_size, limit)
        touched = _np.nonzero(sums)[0]
        return dict(zip(touched.tolist(), sums[touched].tolist()))
