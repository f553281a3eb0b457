"""Run-report rendering: ``repro report <dir>`` lives here.

Given a recorded run (a manifest and its event tape, see
:mod:`repro.obs.export`), renders a terminal summary: the headline
numbers, unicode sparklines for the sampled series, the reconstructed
waste-factor trajectory, and the per-stage progression table with every
:class:`~repro.obs.events.StageTransition` marker — the Stage I →
Stage II hand-off of :math:`P_F` included.

The trajectory is *reconstructed from the tape* rather than the sampled
series: ``alloc`` and ``move`` rows carry addresses, so the high-water
mark and live-word count can be replayed exactly, giving the report
event-granular waste numbers at each stage boundary even when the
sampler ran at a coarse cadence.  Trajectory and stage table come from
one pass over the tape's columns (:meth:`~repro.obs.tape.EventTape.walk`),
which builds no event object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .export import RunData
from .tape import ALLOC, FREE, MOVE, STAGE, EventTape

__all__ = [
    "sparkline",
    "replay_waste_trajectory",
    "StageRow",
    "stage_rows",
    "render_run",
]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], *, width: int = 60) -> str:
    """A one-line unicode sparkline, resampled to at most ``width`` cells.

    Resampling takes the maximum of each bin (peaks are the story in
    waste plots); a flat series renders as a line of low blocks.
    """
    if not values:
        return "(no data)"
    if width < 1:
        raise ValueError("width must be positive")
    if len(values) > width:
        binned = []
        for column in range(width):
            lo = column * len(values) // width
            hi = max(lo + 1, (column + 1) * len(values) // width)
            binned.append(max(values[lo:hi]))
        values = binned
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(values)
    cells = []
    for value in values:
        level = int((value - lo) / span * (len(_BLOCKS) - 1))
        cells.append(_BLOCKS[level])
    return "".join(cells)


@dataclass(frozen=True)
class TrajectoryPoint:
    """Replayed heap state right after one event."""

    seq: int
    high_water: int
    live_words: int


@dataclass(frozen=True)
class StageRow:
    """One stage boundary with the replayed waste level at that instant."""

    program: str
    stage: str
    step: int
    label: str
    seq: int
    high_water: int
    live_words: int

    def waste_factor(self, live_bound: int) -> float:
        """``HS / M`` when the boundary was crossed."""
        return self.high_water / live_bound


def _replay(tape: EventTape) -> tuple[list[TrajectoryPoint], list[StageRow]]:
    """The trajectory (a point per alloc/free/move row) and the stage
    rows, from one pass over the tape."""
    points: list[TrajectoryPoint] = []
    rows: list[StageRow] = []
    high_water = live = 0

    def on_alloc(seq, object_id, size, address, latency_ns):
        nonlocal high_water, live
        live += size
        high_water = max(high_water, address + size)
        points.append(TrajectoryPoint(seq, high_water, live))

    def on_free(seq, object_id, size, address):
        nonlocal live
        live -= size
        points.append(TrajectoryPoint(seq, high_water, live))

    def on_move(seq, object_id, size, old_address, new_address):
        nonlocal high_water
        high_water = max(high_water, new_address + size)
        points.append(TrajectoryPoint(seq, high_water, live))

    def on_stage(seq, program, stage, step, label):
        rows.append(StageRow(program, stage, step, label, seq, high_water,
                             live))

    tape.walk({ALLOC: on_alloc, FREE: on_free, MOVE: on_move,
               STAGE: on_stage})
    return points, rows


def replay_waste_trajectory(tape: EventTape) -> list[TrajectoryPoint]:
    """Replay alloc/free/move rows into a high-water/live trajectory."""
    return _replay(tape)[0]


def stage_rows(tape: EventTape) -> list[StageRow]:
    """Every stage transition, annotated with the replayed heap state."""
    return _replay(tape)[1]


def _format_stage_table(rows: list[StageRow], live_bound: int) -> str:
    from ..analysis.report import format_table  # local: avoid import cycle

    header = ("stage", "step", "label", "seq", "HS (words)", "HS/M")
    body = [
        (
            row.stage,
            row.step,
            row.label or "-",
            row.seq,
            row.high_water,
            row.waste_factor(live_bound),
        )
        for row in rows
    ]
    return format_table(header, body)


def _format_placement_line(metrics: dict) -> str | None:
    """The allocator micro-profile line, or None when not recorded.

    Summarizes the ``placement.*`` counters (gap-index search traffic)
    plus the mean placement latency from the ``alloc.latency_ns``
    histogram.
    """

    def counter(name: str) -> int | None:
        entry = metrics.get(name)
        return entry.get("value") if isinstance(entry, dict) else None

    searches = counter("placement.searches")
    if searches is None:
        return None
    hits = counter("placement.index_hits") or 0
    fallbacks = counter("placement.scan_fallbacks") or 0
    examined = counter("placement.gaps_examined") or 0
    hit_pct = 100.0 * hits / searches if searches else 0.0
    per_search = examined / searches if searches else 0.0
    line = (
        f"placement: {searches} searches "
        f"({hit_pct:.1f}% index, {fallbacks} scan fallbacks), "
        f"{per_search:.2f} gaps examined/search"
    )
    latency = metrics.get("alloc.latency_ns")
    if isinstance(latency, dict) and latency.get("count"):
        mean_ns = latency.get("total", 0) / latency["count"]
        line += f", {mean_ns:,.0f} ns/alloc placement"
    return line


def _format_profile_lines(profile: dict) -> list[str]:
    """Summary lines for a manifest's ``profile`` block (may be absent)."""
    wall_ns = profile.get("wall_ns", 0)
    lanes = profile.get("lanes", [])
    lines = [
        "",
        (
            f"profile: {profile.get('span_count', 0)} spans over "
            f"{wall_ns / 1e6:.2f} ms"  # lint: float-ok
            + (f" across {len(lanes)} lanes" if len(lanes) > 1 else "")
            + (f", {profile['dropped']} dropped"
               if profile.get("dropped") else "")
        ),
    ]
    phases = profile.get("phases", [])
    stage_phases = [p for p in phases
                    if str(p.get("name", "")).startswith("stage:")]
    for phase in stage_phases:
        lines.append(
            f"  +{phase.get('start_ns', 0) / 1e6:9.2f} ms  "  # lint: float-ok
            f"{phase.get('name')} "
            f"({phase.get('duration_ns', 0) / 1e6:.2f} ms)"  # lint: float-ok
        )
    return lines


def render_run(run: RunData, *, width: int = 60, plot: bool = True) -> str:
    """The full terminal report for one recorded run.

    Degrades gracefully: manifests missing optional keys (older schema
    additions like ``profile``, or hand-trimmed manifests) and empty or
    absent event files render a reduced report rather than
    raising.
    """
    manifest = run.manifest
    try:
        live_bound = run.live_space_bound
    except (KeyError, TypeError, ValueError):
        live_bound = 0
    result = manifest.get("result", {})
    params = manifest.get("params", {})
    lines = [
        (
            f"run: {manifest.get('program', '?')} vs "
            f"{manifest.get('manager', '?')}"
        ),
        (
            f"params: M={params.get('live_space', '?')} "
            f"n={params.get('max_object', '?')} "
            f"c={params.get('compaction_divisor', '?')}"
        ),
        (
            f"result: HS={result.get('heap_size', '?')} words "
            f"({result.get('waste_factor', float('nan')):.4f} x M), "
            f"allocs={result.get('allocation_count', '?')} "
            f"frees={result.get('free_count', '?')} "
            f"moves={result.get('move_count', '?')}"
        ),
        (
            f"timing: {manifest.get('wall_seconds', 0.0):.4f} s wall, "
            f"{manifest.get('events_per_second', 0.0):,.0f} events/s, "
            f"peak RSS {manifest.get('peak_rss_kb') or '?'} KiB, "
            f"{manifest.get('event_count', 0)} telemetry events"
        ),
    ]
    placement = _format_placement_line(manifest.get("metrics", {}))
    if placement:
        lines.append(placement)
    profile = manifest.get("profile")
    if isinstance(profile, dict):
        lines.extend(_format_profile_lines(profile))

    bound = live_bound if live_bound > 0 else 1
    samples = manifest.get("samples", [])
    if samples:
        waste = [s.get("high_water", 0) / bound for s in samples]  # lint: float-ok
        live = [float(s.get("live_words", 0)) for s in samples]
        frag = [float(s.get("external_fragmentation", 0.0)) for s in samples]
        budget = [float(s.get("budget_remaining", 0.0)) for s in samples]
        lines.append("")
        lines.append(f"sampled series ({len(samples)} points):")
        lines.append(
            f"  waste HS/M   [{min(waste):.3f}..{max(waste):.3f}] "
            + sparkline(waste, width=width)
        )
        lines.append(
            f"  live words   [{min(live):.0f}..{max(live):.0f}] "
            + sparkline(live, width=width)
        )
        lines.append(
            f"  ext. frag    [{min(frag):.3f}..{max(frag):.3f}] "
            + sparkline(frag, width=width)
        )
        lines.append(
            f"  budget left  [{min(budget):.0f}..{max(budget):.0f}] "
            + sparkline(budget, width=width)
        )

    trajectory, rows = _replay(run.tape)
    if trajectory and plot:
        from ..analysis.ascii_plot import render_series  # avoid import cycle

        xs = list(range(len(trajectory)))
        ys = [point.high_water / bound for point in trajectory]  # lint: float-ok
        lines.append("")
        lines.append("waste-factor trajectory (replayed from events):")
        lines.append(
            render_series(
                xs,
                {"HS/M": ys},
                width=min(72, max(16, width)),
                height=12,
                x_label="heap events",
            )
        )
    if rows:
        lines.append("")
        lines.append("stage progression:")
        lines.append(_format_stage_table(rows, bound))
    elif len(run.tape):
        lines.append("")
        lines.append("stage progression: (no stage transitions recorded)")
    else:
        lines.append("")
        lines.append("events missing or empty: headline numbers only")
    return "\n".join(lines)
