"""Trace aggregation: self-time trees and manifest profile blocks.

Companion to :mod:`repro.obs.trace`: that module *records* spans, this
one answers questions about them —

* :func:`aggregate_spans` folds a span set into per-name cumulative /
  self time (self = cumulative minus the cumulative time of direct
  children), the flamegraph-style table ``repro trace --top`` prints
  via :func:`render_top`;
* :func:`profile_block` is the ``profile.*`` manifest block recorded
  next to the existing ``placement.*`` metrics: per-phase attribution a
  later reader can consume without the raw trace;
* :func:`lane_wall_ns` sums per-lane busy time, the cross-check that a
  parallel sweep's per-task spans account for the engine's wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .trace import Span

__all__ = [
    "SpanStats",
    "aggregate_spans",
    "render_top",
    "profile_block",
    "lane_wall_ns",
    "task_span_total_ns",
]


@dataclass
class SpanStats:
    """Aggregate timing for one span name."""

    name: str
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    max_ns: int = 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record (manifest ``profile.by_name`` entries)."""
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "max_ns": self.max_ns,
        }


def aggregate_spans(spans: Sequence[Span]) -> dict[str, SpanStats]:
    """Per-name cumulative/self statistics over a span set.

    Self time subtracts only *direct* children, so a name's ``self_ns``
    over the whole table sums (within clock noise) to the trace's total
    busy time even when scopes nest arbitrarily deep.
    """
    by_name: dict[str, SpanStats] = {}
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent_id is not None and span.duration_ns > 0:
            child_ns[span.parent_id] = (child_ns.get(span.parent_id, 0)
                                        + span.duration_ns)
    for span in spans:
        duration = span.duration_ns
        if duration <= 0:
            continue
        stats = by_name.get(span.name)
        if stats is None:
            stats = by_name[span.name] = SpanStats(span.name)
        stats.count += 1
        stats.total_ns += duration
        stats.self_ns += max(0, duration - child_ns.get(span.span_id, 0))
        stats.max_ns = max(stats.max_ns, duration)
    return by_name


def render_top(spans: Sequence[Span], *, limit: int = 20) -> str:
    """The ``repro trace --top`` table: hottest span names by self time."""
    table = aggregate_spans(spans)
    if not table:
        return "(no closed spans)"
    total_self = sum(stats.self_ns for stats in table.values()) or 1
    rows = sorted(table.values(), key=lambda s: s.self_ns, reverse=True)
    elided = max(0, len(rows) - limit)
    rows = rows[:limit]
    from ..analysis.report import format_table  # local: avoid import cycle

    header = ("span", "count", "total ms", "self ms", "self %", "max ms")
    body = [
        (
            stats.name,
            stats.count,
            f"{stats.total_ns / 1e6:.3f}",  # lint: float-ok
            f"{stats.self_ns / 1e6:.3f}",  # lint: float-ok
            f"{100.0 * stats.self_ns / total_self:.1f}",  # lint: float-ok
            f"{stats.max_ns / 1e6:.3f}",  # lint: float-ok
        )
        for stats in rows
    ]
    text = format_table(header, body)
    if elided:
        text += f"\n... ({elided} more span names)"
    return text


def lane_wall_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Busy nanoseconds per lane, counting only each lane's root spans.

    A lane's roots are its spans with no parent *in the same lane* —
    adopted worker trees hang beneath a main-lane task span, so a
    worker lane's single root is its ``run``/``task`` span and nested
    spans are not double-counted.
    """
    spans = list(spans)
    lane_of = {span.span_id: span.lane for span in spans}
    totals: dict[int, int] = {}
    for span in spans:
        if span.duration_ns <= 0:
            continue
        parent_lane = lane_of.get(span.parent_id) if span.parent_id else None
        if parent_lane == span.lane:
            continue  # nested within the same lane: already counted
        totals[span.lane] = totals.get(span.lane, 0) + span.duration_ns
    return totals


def task_span_total_ns(spans: Iterable[Span],
                       prefix: str = "task:") -> int:
    """Summed duration of every per-task span (lane roots of a sweep)."""
    return sum(span.duration_ns for span in spans
               if span.name.startswith(prefix))


def profile_block(spans: Sequence[Span], *, dropped: int = 0) -> dict[str, Any]:
    """The manifest's ``profile`` block for one traced execution.

    Out-of-band like ``placement.*``: nothing here feeds the event
    digest.  ``phases`` lists stage spans in start order with absolute
    offsets rebased to the trace start, so a reader can reconstruct the
    per-phase timeline without the raw span file.
    """
    closed = [span for span in spans if span.duration_ns > 0]
    t0 = min((span.start_ns for span in closed), default=0)
    wall_ns = max((span.end_ns for span in closed), default=t0) - t0
    phases = [
        {
            "name": span.name,
            "start_ns": span.start_ns - t0,
            "duration_ns": span.duration_ns,
            "lane": span.lane,
            **({"attrs": span.attrs} if span.attrs else {}),
        }
        for span in sorted(closed, key=lambda s: (s.start_ns, s.span_id))
        if span.name.startswith(("stage:", "task:", "run", "engine."))
    ]
    return {
        "schema": 1,
        "span_count": len(closed),
        "dropped": dropped,
        "wall_ns": wall_ns,
        "lanes": sorted({span.lane for span in closed}),
        "by_name": {name: stats.as_dict()
                    for name, stats in sorted(aggregate_spans(closed).items())},
        "phases": phases,
    }
