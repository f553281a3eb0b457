"""The execution driver: program × manager → measured heap size.

The driver owns the heap, the budget ledger and the interaction order,
and enforces every contract of the paper's model:

* the program never exceeds ``M`` simultaneous live words and never
  allocates an object larger than ``n`` (``LiveSpaceExceeded`` /
  ``ValueError`` otherwise — a buggy adversary, not a buggy manager);
* the manager's moves all pass through the budget
  (:class:`~repro.mm.budget.CompactionBudget` raises on overdraft);
* the manager's placement must be into free words
  (:class:`~repro.heap.errors.OverlapError` otherwise);
* move notifications reach the program immediately.

The driver is also the run's one recorder: with an event bus it writes
every row of the tape — the requests it serves, the compaction windows
and moves it mediates, each ledger charge it makes and each phase
boundary the program announces through its view.

The figure of merit is ``ExecutionResult.waste_factor`` —
``HS / M``, the quantity all the paper's bounds speak about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.params import BoundParams
from ..heap.errors import LiveSpaceExceeded
from ..heap.heap import SimHeap
from ..heap.kernel import make_kernel, resolve_kernel
from ..heap.metrics import HeapMetrics, snapshot
from ..heap.object_model import HeapObject
from ..mm.base import ManagerContext, MemoryManager
from ..mm.budget import BudgetSnapshot, CompactionBudget
from ..obs.events import EventBus
from ..obs.trace import Span, Tracer, active_tracer
from .base import AdversaryProgram, ProgramMoveListener, ProgramView

__all__ = ["ExecutionDriver", "ExecutionResult", "run_execution"]


@dataclass(frozen=True)
class ExecutionResult:
    """Everything measured from one complete execution."""

    params: BoundParams
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
    budget: BudgetSnapshot
    metrics: HeapMetrics
    #: Wall-clock duration of :meth:`ExecutionDriver.run`, in seconds.
    wall_seconds: float = 0.0

    @property
    def waste_factor(self) -> float:
        """``HS / M`` — the paper's figure of merit."""
        return self.heap_size / self.params.live_space

    @property
    def event_count(self) -> int:
        """Total heap events (allocations + frees + moves)."""
        return self.allocation_count + self.free_count + self.move_count

    @property
    def events_per_second(self) -> float:
        """Heap-event throughput over the measured wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.event_count / self.wall_seconds

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.program_name} vs {self.manager_name} @ "
            f"{self.params.describe()}: HS={self.heap_size} words "
            f"({self.waste_factor:.3f} x M), moved={self.total_moved}"
        )


class ExecutionDriver:
    """Mediates one (program, manager) interaction."""

    def __init__(
        self,
        params: BoundParams,
        manager: MemoryManager,
        *,
        paranoid: bool = False,
        budget: CompactionBudget | None = None,
        observer: EventBus | None = None,
        tracer: Tracer | None = None,
        kernel: str | None = None,
    ) -> None:
        self.params = params
        self.manager = manager
        #: The occupancy backend actually in use ("reference" or
        #: "bitmap") — explicit argument wins, then ``REPRO_KERNEL``,
        #: then "bitmap" when numpy imports, else "reference".
        #: Recorded in run manifests and part of result-cache keys, so
        #: entries cached under "reference" are not reused by a
        #: "bitmap" run (the digests agree; only the key differs).
        self.kernel_name = resolve_kernel(kernel)
        self.heap = SimHeap(kernel=make_kernel(self.kernel_name))
        #: The telemetry bus, or None (every emission site below guards
        #: on this, so uninstrumented runs pay one comparison per
        #: operation; a bus records each event as one tape row).  The
        #: driver is the only writer: programs announce stages through
        #: their view, and the ledger's charges are recorded here.
        self.observer = observer
        #: Read ``perf_counter_ns`` around each allocation for
        #: ``Alloc.latency_ns`` (:meth:`repro.obs.telemetry.Telemetry.bind`
        #: turns this on; the digest excludes latency, so the tape alone
        #: does not need the clock).
        self.time_allocations = False
        #: The span tracer, hoisted through active_tracer so a disabled
        #: tracer costs exactly what no tracer costs (one comparison);
        #: _fine_tracer is non-None only when per-operation spans are on.
        self.tracer = active_tracer(tracer)
        self._fine_tracer = (self.tracer
                             if self.tracer is not None and self.tracer.fine
                             else None)
        #: The budget ledger; pass an :class:`~repro.mm.budget.AbsoluteBudget`
        #: to run the B-bounded model variant instead of the c-partial one.
        self.budget = budget if budget is not None else CompactionBudget(
            params.compaction_divisor
        )
        #: Re-check full heap invariants after every event (slow; tests).
        self.paranoid = paranoid
        self.program_move_listener: ProgramMoveListener | None = None
        self._live_peak = 0
        self._allocs = 0
        self._frees = 0
        self._moves = 0
        #: The running program's name (the ``program`` of stage rows)
        #: and its open ``stage:*`` span, both set during :meth:`run`.
        self._program_name = ""
        self._stage_span: Span | None = None
        if self._fine_tracer is not None:
            # The budget ledger's enforcement spans ride the same tracer
            # (the attribute is None on uninstrumented ledgers).
            self.budget.tracer = self._fine_tracer
        self._ctx = ManagerContext(
            self.heap, self.budget, move_listener=self._on_manager_move,
            tracer=self._fine_tracer,
        )
        manager.attach(self._ctx)

    # Program-facing operations (called via ProgramView) -------------------

    def program_allocate(self, size: int) -> HeapObject:
        """Serve one allocation request through the manager."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if size > self.params.max_object:
            raise ValueError(
                f"object of {size} words exceeds the n={self.params.max_object} "
                "contract"
            )
        if self.heap.live_words + size > self.params.live_space:
            raise LiveSpaceExceeded(
                f"allocating {size} would put live space at "
                f"{self.heap.live_words + size} > M={self.params.live_space}"
            )
        observer = self.observer
        timed = self.time_allocations
        start_ns = time.perf_counter_ns() if timed else 0
        tracer = self._fine_tracer
        if tracer is not None:
            alloc_span = tracer.begin_unchecked("alloc", {"size": size})
            search_stats = self.heap.occupied.search_stats
            searches_before = search_stats.searches
            gaps_before = search_stats.gaps_examined
        self._ctx.reset_request_counters()
        self.manager.prepare(size)
        # The compaction window may have triggered program frees; the
        # live-space check above still holds (frees only reduce it).
        address = self.manager.place(size)
        # The window closes only now: some managers compact lazily inside
        # place() (e.g. the Theorem-2 evacuator), and those moves belong
        # to this request's window just the same.
        if observer is not None and self._ctx.moves_this_request:
            observer.emit_window(size, self._ctx.moves_this_request,
                                 self._ctx.moved_words_this_request)
        obj = self.heap.place(address, size)  # raises OverlapError if bad
        self.budget.charge_allocation(size)
        if observer is not None:
            observer.emit_charge("alloc", size, self.budget.remaining)
        self.manager.on_place(obj)
        self._allocs += 1
        self._live_peak = max(self._live_peak, self.heap.live_words)
        if observer is not None:
            observer.emit_alloc(
                obj.object_id, size, address,
                time.perf_counter_ns() - start_ns if timed else 0,
            )
        if tracer is not None:
            alloc_span.set(
                address=address,
                moves=self._ctx.moves_this_request,
                moved_words=self._ctx.moved_words_this_request,
                searches=search_stats.searches - searches_before,
                gaps_examined=search_stats.gaps_examined - gaps_before,
            )
            tracer.end(alloc_span)
        if self.paranoid:
            self.heap.check_invariants()
            self.budget.check_invariant()
        return obj

    def program_free(self, object_id: int) -> None:
        """Serve one de-allocation."""
        tracer = self._fine_tracer
        if tracer is not None:
            free_span = tracer.begin_unchecked("free")
        obj = self.heap.free(object_id)
        self.manager.on_free(obj)
        self._frees += 1
        if tracer is not None:
            free_span.set(size=obj.size, address=obj.address)
            tracer.end(free_span)
        if self.observer is not None:
            self.observer.emit_free(object_id, obj.size, obj.address)
        if self.paranoid:
            self.heap.check_invariants()

    def program_stage(self, stage: str, step: int, label: str = "") -> None:
        """Record one phase boundary the program announces.

        With a bus this is a :class:`~repro.obs.events.StageTransition`
        row; with a tracer it closes the previous ``stage:<stage>`` span
        and opens the next one (:meth:`run` closes the last), bus or no
        bus, giving the trace per-phase attribution.
        """
        if self.observer is not None:
            self.observer.emit_stage(self._program_name, stage, step, label)
        tracer = self.tracer
        if tracer is not None:
            if self._stage_span is not None:
                tracer.end(self._stage_span)
            self._stage_span = tracer.begin_unchecked(f"stage:{stage}", {
                "program": self._program_name, "step": step, "label": label,
            })

    # Manager move notification ----------------------------------------------

    def _on_manager_move(
        self, obj: HeapObject, old_address: int, new_address: int
    ) -> None:
        self._moves += 1
        if self.observer is not None:
            # The ledger charged the move just before it happened.  Both
            # rows precede the program's listener so a consequent free
            # (P_F's immediate-free rule) follows its move.
            self.observer.emit_charge("move", obj.size, self.budget.remaining)
            self.observer.emit_move(obj.object_id, obj.size, old_address,
                                    new_address)
        if self.program_move_listener is not None:
            self.program_move_listener(obj, old_address, new_address)

    # Entry point ---------------------------------------------------------------

    def run(self, program: AdversaryProgram) -> ExecutionResult:
        """Execute the program to completion and measure.

        With a tracer attached the whole execution sits under one
        ``run`` span, with one ``stage:*`` child span per phase the
        program announces (:meth:`program_stage`), so the trace gets
        per-phase attribution without the program knowing about tracers.
        """
        view = ProgramView(self)
        self._program_name = program.name
        tracer = self.tracer
        if tracer is not None:
            run_span = tracer.begin_unchecked("run", {
                "program": program.name,
                "manager": self.manager.name,
                "live_space": self.params.live_space,
                "max_object": self.params.max_object,
            })
        start = time.perf_counter()
        program.run(view)
        wall_seconds = time.perf_counter() - start
        if tracer is not None:
            if self._stage_span is not None:
                tracer.end(self._stage_span)
                self._stage_span = None
            run_span.set(
                heap_size=self.heap.high_water,
                allocs=self._allocs, frees=self._frees, moves=self._moves,
            )
            tracer.end(run_span)
        return ExecutionResult(
            params=self.params,
            program_name=program.name,
            manager_name=self.manager.name,
            heap_size=self.heap.high_water,
            live_peak=self._live_peak,
            total_allocated=self.heap.total_allocated,
            total_freed=self.heap.total_freed,
            total_moved=self.heap.total_moved,
            allocation_count=self._allocs,
            free_count=self._frees,
            move_count=self._moves,
            budget=self.budget.snapshot(),
            metrics=snapshot(self.heap),
            wall_seconds=wall_seconds,
        )


def run_execution(
    params: BoundParams,
    program: AdversaryProgram,
    manager: MemoryManager,
    *,
    paranoid: bool = False,
    budget: CompactionBudget | None = None,
    observer: EventBus | None = None,
    tracer: Tracer | None = None,
    kernel: str | None = None,
) -> ExecutionResult:
    """Convenience wrapper: build a driver, run, return the result."""
    driver = ExecutionDriver(
        params, manager, paranoid=paranoid, budget=budget,
        observer=observer, tracer=tracer, kernel=kernel,
    )
    return driver.run(program)
