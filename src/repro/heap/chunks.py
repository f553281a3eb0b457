"""Aligned chunk partitions — the paper's ``D(i)`` views of the heap.

At step ``i`` the paper partitions the address space into aligned chunks
of ``2^i`` words (chunk ``k`` covers ``[k * 2^i, (k+1) * 2^i)``).
:class:`ChunkPartition` is that view: it answers which chunks an object
touches, per-chunk occupancy and density, and supports the "step change"
where each pair of adjacent chunks becomes one chunk of the next size.

Chunks are identified by :class:`ChunkId` — ``(exponent, index)`` — so
ids from different partitions never collide, which matters because the
association map survives step changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .units import chunks_spanned

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .heap import SimHeap
    from .object_model import HeapObject

__all__ = ["ChunkId", "ChunkPartition"]


@dataclass(frozen=True, order=True)
class ChunkId:
    """An aligned chunk: ``[index * 2^exponent, (index+1) * 2^exponent)``."""

    exponent: int
    index: int

    @property
    def size(self) -> int:
        """Chunk size in words, ``2^exponent``."""
        return 1 << self.exponent

    @property
    def start(self) -> int:
        """First word of the chunk."""
        return self.index * self.size

    @property
    def end(self) -> int:
        """One past the last word."""
        return self.start + self.size

    @property
    def parent(self) -> "ChunkId":
        """The chunk of the next partition containing this one."""
        return ChunkId(self.exponent + 1, self.index // 2)

    @property
    def sibling(self) -> "ChunkId":
        """The other half of :attr:`parent`."""
        return ChunkId(self.exponent, self.index ^ 1)

    @property
    def left_neighbor(self) -> "ChunkId | None":
        """Adjacent chunk below, or ``None`` at address 0."""
        if self.index == 0:
            return None
        return ChunkId(self.exponent, self.index - 1)

    @property
    def right_neighbor(self) -> "ChunkId":
        """Adjacent chunk above."""
        return ChunkId(self.exponent, self.index + 1)

    def halves(self) -> tuple["ChunkId", "ChunkId"]:
        """The two chunks of the previous partition composing this one."""
        return (
            ChunkId(self.exponent - 1, self.index * 2),
            ChunkId(self.exponent - 1, self.index * 2 + 1),
        )

    def contains(self, word: int) -> bool:
        """Whether ``word`` lies in this chunk."""
        return self.start <= word < self.end

    def __repr__(self) -> str:
        return f"Chunk(2^{self.exponent}@{self.index})"


class ChunkPartition:
    """The ``D(exponent)`` view of a heap."""

    def __init__(self, exponent: int) -> None:
        if exponent < 0:
            raise ValueError("chunk exponent must be non-negative")
        self.exponent = exponent
        self.chunk_size = 1 << exponent

    def chunk_of(self, word: int) -> ChunkId:
        """The chunk containing address ``word``."""
        if word < 0:
            raise ValueError("addresses are non-negative")
        return ChunkId(self.exponent, word // self.chunk_size)

    def chunks_of_object(self, obj: "HeapObject") -> list[ChunkId]:
        """Every chunk the object's current placement touches."""
        return [
            ChunkId(self.exponent, k)
            for k in chunks_spanned(obj.address, obj.size, self.chunk_size)
        ]

    def chunks_of_range(self, start: int, end: int) -> list[ChunkId]:
        """Every chunk ``[start, end)`` touches."""
        if end <= start:
            return []
        return [
            ChunkId(self.exponent, k)
            for k in chunks_spanned(start, end - start, self.chunk_size)
        ]

    def fully_covered_by(self, start: int, end: int) -> list[ChunkId]:
        """Chunks lying entirely inside ``[start, end)``, in order.

        An object of size ``4 * 2^i`` fully covers 4 chunks when aligned
        and at least 3 otherwise — the fact Stage II of :math:`P_F`
        leans on (Algorithm 1, line 14).
        """
        first = -(-start // self.chunk_size)  # ceil division
        last = end // self.chunk_size  # floor: chunks strictly inside
        return [ChunkId(self.exponent, k) for k in range(first, last)]

    def occupancy(self, heap: "SimHeap", chunk: ChunkId) -> int:
        """Live words currently inside ``chunk``."""
        return heap.occupied.overlap_words(chunk.start, chunk.end)

    def density(self, heap: "SimHeap", chunk: ChunkId) -> float:
        """Live-word fraction of ``chunk`` (0.0 empty, 1.0 full)."""
        return self.occupancy(heap, chunk) / self.chunk_size

    def occupancies(self, heap: "SimHeap") -> dict[int, int]:
        """Live words per chunk index, for every touched chunk, in one
        sweep over the occupied intervals (the bulk version of
        :meth:`occupancy` — managers scanning for sparse chunks need all
        of them at once).  With a kernel attached the sweep runs
        vectorized over the interval tables instead; the resulting
        dict (keys ascending, touched chunks only) is identical.
        """
        size = self.chunk_size
        kernel = heap.kernel
        if kernel is not None and hasattr(kernel, "chunk_occupancies"):
            return kernel.chunk_occupancies(size, heap.occupied.span_end)
        totals: dict[int, int] = {}
        for start, end in heap.occupied:
            for k in chunks_spanned(start, end - start, size):
                lo = start if start > k * size else k * size
                hi = end if end < (k + 1) * size else (k + 1) * size
                totals[k] = totals.get(k, 0) + hi - lo
        return totals

    def used_chunks(self, heap: "SimHeap") -> Iterator[ChunkId]:
        """Chunks with at least one live word, in address order."""
        seen = -1
        for start, end in heap.occupied:
            for k in chunks_spanned(start, end - start, self.chunk_size):
                if k > seen:
                    seen = k
                    yield ChunkId(self.exponent, k)

    def coarsen(self) -> "ChunkPartition":
        """The next partition (chunks twice as large) — a step change."""
        return ChunkPartition(self.exponent + 1)
