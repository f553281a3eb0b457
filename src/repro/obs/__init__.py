"""Unified telemetry: events, metrics, time series and run manifests.

This package is the observability substrate of the reproduction.  One
typed :class:`~repro.obs.events.EventBus` carries everything that
happens during an execution (allocations, frees, moves, compaction
windows, budget charges, adversary stage transitions) and records every
event once, as a row of its :mod:`event tape <repro.obs.tape>`.  The
tape is folded into :mod:`metrics <repro.obs.metrics>` (counters,
gauges, latency/size histograms), its row clock drives a :mod:`sampled
time series <repro.obs.sampler>`, and it is persisted with a manifest
as a :mod:`run directory <repro.obs.export>` that ``repro report``
renders and ``repro check`` audits; the run's digest, its stored
``events.tape`` and the ``events.jsonl`` export all come from the tape.
Event objects are built only for subscribers.

Instrumentation is strictly opt-in: every hook in the driver, the budget
ledger and the adversary programs is an ``EventBus | None`` defaulting
to ``None``, and the ``None`` path costs one pointer comparison per
operation (``tools/check_overhead.py`` enforces the ceiling).

Quickstart::

    from repro.adversary import PFProgram
    from repro.core.params import BoundParams
    from repro.mm.registry import create_manager
    from repro.obs import run_recorded

    params = BoundParams(8192, 128, 50.0)
    result = run_recorded(
        params, PFProgram(params), create_manager("first-fit", params),
        "runs/demo",
    )
    # runs/demo now holds manifest.json + events.tape;
    # render with: python -m repro report runs/demo
"""

from .events import (
    Alloc,
    BudgetCharge,
    CompactionWindow,
    EventBus,
    EventSink,
    Free,
    Move,
    StageTransition,
    TelemetryEvent,
    event_from_dict,
)
from .export import (
    EVENTS_FILENAME,
    JSONL_FILENAME,
    MANIFEST_FILENAME,
    SCHEMA_VERSION,
    RunData,
    build_manifest,
    load_manifest,
    load_run,
    peak_rss_kb,
    read_events,
    read_tape,
    write_events,
    write_manifest,
)
from .metrics import (
    LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    power_of_two_buckets,
)
from .report import render_run, replay_waste_trajectory, sparkline, stage_rows
from .profile import aggregate_spans, profile_block, render_top
from .sampler import HeapSampler, SamplePoint
from .tape import EventTape
from .telemetry import DEFAULT_SAMPLE_EVERY, Telemetry, run_recorded
from .trace import (
    TRACE_FILENAME,
    Span,
    StageSpanSink,
    Tracer,
    active_tracer,
    read_trace,
    to_chrome_trace,
    write_trace,
)

__all__ = [
    "Alloc",
    "BudgetCharge",
    "CompactionWindow",
    "Counter",
    "DEFAULT_SAMPLE_EVERY",
    "EVENTS_FILENAME",
    "EventBus",
    "EventSink",
    "EventTape",
    "Free",
    "Gauge",
    "HeapSampler",
    "Histogram",
    "JSONL_FILENAME",
    "LATENCY_BUCKETS_NS",
    "MANIFEST_FILENAME",
    "MetricsCollector",
    "MetricsRegistry",
    "Move",
    "RunData",
    "SCHEMA_VERSION",
    "SamplePoint",
    "Span",
    "StageSpanSink",
    "StageTransition",
    "TRACE_FILENAME",
    "Telemetry",
    "TelemetryEvent",
    "Tracer",
    "active_tracer",
    "aggregate_spans",
    "build_manifest",
    "event_from_dict",
    "load_manifest",
    "load_run",
    "peak_rss_kb",
    "power_of_two_buckets",
    "profile_block",
    "read_events",
    "read_tape",
    "read_trace",
    "render_run",
    "render_top",
    "replay_waste_trajectory",
    "run_recorded",
    "sparkline",
    "stage_rows",
    "to_chrome_trace",
    "write_events",
    "write_manifest",
    "write_trace",
]
