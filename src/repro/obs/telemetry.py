"""The telemetry facade: one object bundling bus, metrics and sampler.

:class:`Telemetry` is what callers actually hold: it owns an
:class:`~repro.obs.events.EventBus`, a
:class:`~repro.obs.metrics.MetricsRegistry` that a
:class:`~repro.obs.metrics.MetricsCollector` fills from the bus's tape
whenever it is read, and — once bound to a driver — a
:class:`~repro.obs.sampler.HeapSampler` on the bus's row clock,
producing the time series.  :func:`run_recorded` is the one-call path
the CLI and the experiment grids use: build telemetry, instrument
driver + program, run, persist a ``manifest.json`` / ``events.tape``
pair.  Everything comes from the bus's event tape: the metrics are
folded from its columns, the sampler counts its rows, and nothing
buffers or re-hashes the stream, so a recorded run builds no event
object unless someone subscribes.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Union

from .events import EventBus
from .export import EVENTS_FILENAME, build_manifest, write_manifest
from .metrics import MetricsCollector, MetricsRegistry
from .sampler import HeapSampler
from .trace import TRACE_FILENAME, Tracer, active_tracer, write_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.base import AdversaryProgram
    from ..adversary.driver import ExecutionDriver, ExecutionResult
    from ..core.params import BoundParams
    from ..mm.base import MemoryManager

__all__ = [
    "Telemetry",
    "run_recorded",
    "record_placement_metrics",
    "record_solver_metrics",
    "DEFAULT_SAMPLE_EVERY",
]

#: Default sampling cadence (bus events between heap snapshots).
DEFAULT_SAMPLE_EVERY = 256


class Telemetry:
    """Bus + metrics + (once bound) sampler, wired together.

    Create one per execution, pass ``telemetry.bus`` as the driver's
    ``observer=`` and the program's ``bus=``, then call :meth:`bind`
    with the driver so the sampler can snapshot its heap and budget.
    """

    def __init__(self, *, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.bus = EventBus()
        self.collector = MetricsCollector(MetricsRegistry(), self.bus.tape)
        self.sample_every = sample_every
        self.sampler: HeapSampler | None = None

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics, with every row the bus has recorded folded in."""
        self.collector.fold()
        return self.collector.registry

    def bind(self, driver: "ExecutionDriver") -> "Telemetry":
        """Attach the heap sampler to a constructed driver; returns self.

        Also asks the driver to time each allocation, which fills
        ``alloc.latency_ns``.
        """
        if self.sampler is not None:
            raise ValueError("telemetry already bound to a driver")
        self.sampler = HeapSampler(
            driver.heap,
            driver.budget,
            every=self.sample_every,
            live_bound=driver.params.live_space,
        ).attach(self.bus)
        driver.time_allocations = True
        return self

    def instrument_program(self, program: "AdversaryProgram") -> None:
        """Point the program's telemetry at this bus, if it has the hook.

        Programs advertise the hook as a ``bus`` attribute
        (:class:`~repro.adversary.pf_program.PFProgram` and
        :class:`~repro.adversary.robson_program.RobsonProgram` emit
        :class:`~repro.obs.events.StageTransition` through it); benign
        workloads simply lack the attribute and stay uninstrumented.
        """
        if hasattr(program, "bus"):
            program.bus = self.bus

    def samples_as_dicts(self) -> list[dict]:
        """The sampled series (empty before :meth:`bind` / any samples)."""
        return self.sampler.to_dicts() if self.sampler is not None else []


def record_placement_metrics(
    registry: MetricsRegistry, driver: "ExecutionDriver"
) -> None:
    """Lift the heap's placement-search counters into ``registry``.

    The :class:`~repro.heap.gap_index.SearchStats` live on the interval
    set (out-of-band: they never enter the event stream, so digests stay
    identical whether searches hit the index or the naive scan).  This
    copies them into ``placement.*`` counters so manifests and
    ``repro report`` surface them.
    """
    stats = driver.heap.occupied.search_stats
    for name, value in stats.as_dict().items():
        registry.counter(f"placement.{name}").inc(value)


#: Per-probe exact-solver counters lifted into ``solver.*`` metrics.
_SOLVER_COUNTER_KEYS = (
    "orbits_visited",
    "p_orbits",
    "q_orbits",
    "raw_successors",
    "edges",
    "epochs",
    "tt_safe_hits",
    "tt_win_hits",
    "winning_orbits",
    "safe_orbits",
)


def record_solver_metrics(
    registry: MetricsRegistry, stats_dicts: "Sequence[dict]"
) -> None:
    """Lift exact-solver probe counters into ``solver.*`` metrics.

    ``stats_dicts`` is a sequence of
    :meth:`repro.exact.solver.SolveStats.as_dict` records (one per heap
    size probed — the shape both a live ``GameSolver.history`` and a
    cached :class:`~repro.parallel.tasks.SolveResult` provide).
    Counters accumulate across probes; ``solver.peak_frontier`` is a
    gauge holding the widest frontier any probe reached, and
    ``solver.probes`` counts the solves themselves.
    """
    peak = registry.gauge("solver.peak_frontier")
    for stats in stats_dicts:
        registry.counter("solver.probes").inc()
        for key in _SOLVER_COUNTER_KEYS:
            registry.counter(f"solver.{key}").inc(int(stats.get(key, 0)))
        peak.set(max(peak.value, int(stats.get("peak_frontier", 0))))


def run_recorded(
    params: "BoundParams",
    program: "AdversaryProgram",
    manager: "MemoryManager",
    directory: Union[str, Path],
    *,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    paranoid: bool = False,
    budget=None,
    extra_config: dict | None = None,
    on_driver=None,
    tracer: Tracer | None = None,
    kernel: str | None = None,
) -> "ExecutionResult":
    """Run one fully instrumented execution and persist it.

    Writes ``manifest.json`` and ``events.tape`` into ``directory``
    (created if needed) and returns the
    :class:`~repro.adversary.driver.ExecutionResult` as usual.
    ``on_driver`` (if given) is called with the constructed driver
    before the run — callers needing post-run heap or tape access (the
    CLI's ``--heapmap``, a :class:`repro.check.Sanitizer` reading
    ``driver.observer.tape``) capture it there.

    ``tracer`` (when given and enabled) records hierarchical spans for
    the run; the spans land in ``trace.jsonl`` next to the events and a
    ``profile`` block is added to the manifest.  Spans are out-of-band:
    ``event_digest`` is identical with or without them.

    The bus's :class:`~repro.obs.tape.EventTape` is the one record of
    the stream: it is stored as ``events.tape``
    (:meth:`~repro.obs.tape.EventTape.write`), and the manifest's
    ``event_digest`` (the canonical SHA-256 that lets ``repro check``
    detect later tampering with the events and verify deterministic
    replays) is computed from it, once.
    """
    from ..adversary.driver import ExecutionDriver  # avoid import cycle
    from .profile import profile_block

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)

    live_tracer = active_tracer(tracer)
    trace_mark = live_tracer.mark() if live_tracer is not None else 0

    telemetry = Telemetry(sample_every=sample_every)
    telemetry.instrument_program(program)

    driver = ExecutionDriver(
        params,
        manager,
        paranoid=paranoid,
        budget=budget,
        observer=telemetry.bus,
        tracer=live_tracer,
        kernel=kernel,
    )
    telemetry.bind(driver)
    if on_driver is not None:
        on_driver(driver)
    result = driver.run(program)
    record_placement_metrics(telemetry.registry, driver)

    profile = None
    if live_tracer is not None:
        run_spans = live_tracer.spans_since(trace_mark)
        write_trace(target / TRACE_FILENAME, run_spans)
        profile = profile_block(run_spans, dropped=live_tracer.dropped)

    tape = telemetry.bus.tape
    tape.write(target / EVENTS_FILENAME)
    budget_snapshot = result.budget
    config = {"sample_every": sample_every, "paranoid": paranoid,
              "trace": live_tracer is not None,
              "trace_fine": live_tracer is not None and live_tracer.fine,
              "kernel": driver.kernel_name}
    if extra_config:
        config.update(extra_config)
    manifest = build_manifest(
        program=result.program_name,
        manager=result.manager_name,
        params={
            "live_space": params.live_space,
            "max_object": params.max_object,
            "compaction_divisor": params.compaction_divisor,
        },
        config=config,
        result={
            "heap_size": result.heap_size,
            "waste_factor": result.waste_factor,
            "live_peak": result.live_peak,
            "total_allocated": result.total_allocated,
            "total_freed": result.total_freed,
            "total_moved": result.total_moved,
            "allocation_count": result.allocation_count,
            "free_count": result.free_count,
            "move_count": result.move_count,
            "budget": {
                "allocated_words": budget_snapshot.allocated_words,
                "moved_words": budget_snapshot.moved_words,
                "divisor": budget_snapshot.divisor,
                "absolute_limit": budget_snapshot.absolute_limit,
                "remaining": budget_snapshot.remaining,
            },
        },
        metrics=telemetry.registry.as_dict(),
        samples=telemetry.samples_as_dicts(),
        wall_seconds=result.wall_seconds,
        events_per_second=result.events_per_second,
        event_count=len(tape),
        event_digest=tape.digest(),
        profile=profile,
    )
    write_manifest(target, manifest)
    return result
