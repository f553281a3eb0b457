"""Recorded runs from the tape: the sampler's row clock and folded metrics.

The oracle is the per-event design these replaced: a sampler called
once per event, walking every free gap for its snapshot, and a
collector handed one event object per event.  The oracle sampler is
chained on the bus's row clock after the real one; the collector reads
the finished run's events back from the tape.
"""

import time
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.adversary.catalog import make_program
from repro.adversary.driver import ExecutionDriver
from repro.core.params import BoundParams
from repro.heap.heap import SimHeap
from repro.mm import create_manager
from repro.obs.events import (
    Alloc,
    BudgetCharge,
    CompactionWindow,
    EventBus,
    Free,
    Move,
    StageTransition,
)
from repro.obs.export import load_manifest
from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
    power_of_two_buckets,
)
from repro.obs.sampler import HeapSampler
from repro.obs.telemetry import Telemetry, run_recorded
from repro.obs.trace import Tracer
from repro.parallel.tasks import SimTask, run_task

PARAMS = BoundParams(live_space=1024, max_object=32, compaction_divisor=10.0)
PROGRAMS = ("pf", "robson", "churn")
MANAGERS = ("first-fit", "sliding-compactor", "theorem2", "window-compactor")
CADENCES = (1, 97, 256)
EVENT_TYPES = (Alloc, Free, Move, CompactionWindow, StageTransition,
               BudgetCharge)


def walked_sample(heap, budget, seq, index):
    """A manifest sample dict, its free-gap fields from a walk of the gaps."""
    gaps = list(heap.free_gaps())
    free_words = sum(end - start for start, end in gaps)
    largest = max((end - start for start, end in gaps), default=0)
    return {
        "seq": seq,
        "event_index": index,
        "live_words": heap.live_words,
        "live_objects": heap.objects.live_count,
        "high_water": heap.high_water,
        "free_words": free_words,
        "free_gaps": len(gaps),
        "largest_gap": largest,
        "external_fragmentation":
            1.0 - (largest / free_words) if free_words else 0.0,
        "budget_remaining": float(budget.remaining),
    }


class EventSampler:
    """Samples every ``every``-th row a bus records, chained on its clock."""

    def __init__(self, heap, budget, every, bus):
        self.heap, self.budget, self.every = heap, budget, every
        self.seen = 0
        self.samples = []
        self.bus = bus
        self._next = bus.on_row
        bus.on_row = self

    def __call__(self):
        if self._next is not None:
            self._next()
        self.seen += 1
        if self.seen % self.every == 0:
            seq = self.bus.event_count - 1
            self.samples.append(
                walked_sample(self.heap, self.budget, seq, self.seen))


class EventCollector:
    """The standard metric set, recorded one event at a time."""

    def __init__(self):
        self.registry = registry = MetricsRegistry()
        sizes = power_of_two_buckets(20)
        for cls in EVENT_TYPES:
            registry.counter(f"events.{cls.kind}")
        registry.histogram("alloc.size_words", sizes)
        registry.histogram("move.size_words", sizes)
        registry.histogram("alloc.latency_ns", LATENCY_BUCKETS_NS)
        registry.histogram("compaction_window.moved_words", sizes)
        registry.gauge("budget.remaining_words")

    def feed(self, events):
        """Record ``events`` in order; returns self."""
        for event in events:
            self(event)
        return self

    def __call__(self, event):
        registry = self.registry
        registry.counter(f"events.{event.kind}").inc()
        if isinstance(event, Alloc):
            registry.histogram("alloc.size_words").record(event.size)
            if event.latency_ns:
                registry.histogram("alloc.latency_ns").record(event.latency_ns)
        elif isinstance(event, Move):
            registry.histogram("move.size_words").record(event.size)
        elif isinstance(event, CompactionWindow):
            registry.histogram("compaction_window.moved_words").record(
                event.moved_words)
        elif isinstance(event, BudgetCharge):
            registry.gauge("budget.remaining_words").set(event.remaining)


def instrumented_run(program_name, manager_name, every, *, oracle,
                     tracer=None):
    """Run under ``Telemetry``; with ``oracle``, the per-event sinks too."""
    telemetry = Telemetry(sample_every=every)
    program = make_program(program_name, PARAMS)
    driver = ExecutionDriver(PARAMS, create_manager(manager_name, PARAMS),
                             observer=telemetry.bus, tracer=tracer)
    telemetry.bind(driver)
    sampler = (EventSampler(driver.heap, driver.budget, every, telemetry.bus)
               if oracle else None)
    driver.run(program)
    if sampler is None:
        return telemetry, None
    return telemetry, (sampler,
                       EventCollector().feed(telemetry.bus.tape.events()))


def without_latency(metrics):
    """Metrics minus the wall-clock latency histogram."""
    return {name: value for name, value in metrics.items()
            if name != "alloc.latency_ns"}


class TestSameRunOracle:
    @pytest.mark.parametrize("every", CADENCES)
    @pytest.mark.parametrize("manager_name", MANAGERS)
    @pytest.mark.parametrize("program_name", PROGRAMS)
    def test_row_clock_and_fold_match_per_event_sinks(
            self, program_name, manager_name, every):
        telemetry, (sampler, collector) = instrumented_run(
            program_name, manager_name, every, oracle=True)
        assert sampler.samples, "the cadence never fired"
        assert telemetry.samples_as_dicts() == sampler.samples
        assert telemetry.registry.as_dict() == collector.registry.as_dict()

        # The same execution with nothing chained on the clock.
        plain, _ = instrumented_run(program_name, manager_name, every,
                                    oracle=False)
        assert plain.samples_as_dicts() == sampler.samples
        assert without_latency(plain.registry.as_dict()) == \
            without_latency(collector.registry.as_dict())

    def test_traced_run(self):
        telemetry, (sampler, collector) = instrumented_run(
            "pf", "sliding-compactor", 97, oracle=True, tracer=Tracer())
        assert telemetry.samples_as_dicts() == sampler.samples
        assert telemetry.registry.as_dict() == collector.registry.as_dict()
        # The stage spans change nothing the sampler sees.
        plain, _ = instrumented_run("pf", "sliding-compactor", 97,
                                    oracle=False, tracer=Tracer())
        assert plain.samples_as_dicts() == sampler.samples

    def test_registry_folds_only_new_rows(self):
        telemetry, (_, collector) = instrumented_run(
            "pf", "window-compactor", 256, oracle=True)
        first = telemetry.registry.as_dict()
        assert telemetry.registry.as_dict() == first
        telemetry.bus.emit_alloc(10**6, 8, 10**6, 300)
        collector.feed(telemetry.bus.tape.events()[-1:])
        assert telemetry.registry.as_dict() == collector.registry.as_dict()
        assert telemetry.registry.as_dict() != first


class TestRowClock:
    def test_ticks_on_emit_and_tape_paths_alike(self):
        """Every ``emit_*`` producer ticks, whatever row it writes."""
        bus = EventBus()
        sampler = HeapSampler(SimHeap(), every=2).attach(bus)
        bus.emit_alloc(0, 1, 0)
        bus.emit_free(0, 1, 0)
        bus.emit_move(1, 1, 1, 2)
        bus.emit_window(1, 1, 1)
        bus.emit_stage("p", "I", 0)
        bus.emit_charge("alloc", 1, 0.5)
        assert sampler.events_seen == 6
        assert [point.seq for point in sampler.samples] == [1, 3, 5]

    def test_one_clock_per_bus(self):
        bus = EventBus()
        HeapSampler(SimHeap()).attach(bus)
        with pytest.raises(ValueError, match="row clock"):
            HeapSampler(SimHeap()).attach(bus)


class TestRecordedRunCosts:
    @pytest.mark.parametrize("tracer", [None, Tracer()],
                             ids=["untraced", "traced"])
    def test_recorded_run_builds_no_event_objects(self, tmp_path, tracer):
        refuse = mock.Mock(side_effect=AssertionError("event object built"))
        with ExitStack() as stack:
            for cls in EVENT_TYPES:
                stack.enter_context(mock.patch.object(cls, "__init__", refuse))
            result = run_recorded(
                PARAMS, make_program("pf", PARAMS),
                create_manager("window-compactor", PARAMS), tmp_path / "run",
                tracer=tracer)
        refuse.assert_not_called()
        manifest = load_manifest(tmp_path / "run")
        assert manifest["samples"]
        assert manifest["metrics"]["events.alloc"]["value"] == \
            result.allocation_count

    def test_recorded_manifest_has_alloc_latency(self, tmp_path):
        run_recorded(PARAMS, make_program("pf", PARAMS),
                     create_manager("sliding-compactor", PARAMS),
                     tmp_path / "run")
        metrics = load_manifest(tmp_path / "run")["metrics"]
        latency = metrics["alloc.latency_ns"]
        assert 0 < latency["count"] <= metrics["events.alloc"]["value"]
        assert latency["total"] > 0

    def test_unrecorded_task_reads_no_clock(self, tmp_path):
        task = SimTask.build(PARAMS, "sliding-compactor", "pf")
        with mock.patch.object(time, "perf_counter_ns",
                               wraps=time.perf_counter_ns) as clock:
            run_task(task)
            assert clock.call_count == 0
            # The recorded form of the same task does time allocations.
            run_task(task, record_root=str(tmp_path))
            assert clock.call_count > 0
