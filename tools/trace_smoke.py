#!/usr/bin/env python
"""CI smoke check: a traced parallel sweep exports a valid Chrome trace.

Drives the real CLI (``repro sweep --jobs N --trace``) on a tiny grid,
then validates the exported ``trace_event`` JSON end to end:

* the document parses and has the Chrome shape (``traceEvents`` list,
  ``ph: "X"`` duration events with non-negative ``ts``/``dur``);
* at least ``--jobs`` worker lanes are present beyond the main lane
  (every worker process got its own track);
* every executed task contributed a ``task:`` span, and no lane's busy
  time exceeds the ``engine.run`` wall time (the accounting identity
  that catches clock-domain mixups between forked workers);
* every ``task:`` span holds at least one ``stage:I`` and one
  ``stage:II`` span on its lane, inside its time window (the P_F
  program's phases reach the trace from inside each worker).

Usage::

    PYTHONPATH=src python tools/trace_smoke.py [--jobs 2] [--out trace.json]

Exit status 0 when the trace is valid, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import main as repro_main

#: Grid kept tiny: 2 divisors x 2 managers = 4 tasks, seconds of work.
GRID = "5.0,10.0"
MANAGERS = "first-fit,sliding-compactor"
#: Stage spans every P_F task must hold.
STAGES = ("stage:I", "stage:II")
#: Slack for the microsecond floats of nested spans' bounds.
EPSILON_US = 1e-3


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def validate_trace(path: Path, jobs: int) -> int:
    """Exit code after checking one exported Chrome trace document."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        return _fail(f"cannot parse {path}: {error}")

    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        return _fail("traceEvents missing or empty")

    durations = [e for e in events if e.get("ph") == "X"]
    if not durations:
        return _fail("no duration (ph=X) events")
    for event in durations:
        if event.get("ts", -1) < 0 or event.get("dur", 0) <= 0:
            return _fail(f"bad ts/dur on event {event.get('name')!r}")

    lanes = {e["pid"] for e in durations}
    worker_lanes = lanes - {0}
    if len(worker_lanes) < jobs:
        return _fail(f"expected >= {jobs} worker lanes, saw "
                     f"{sorted(worker_lanes)}")

    task_spans = [e for e in durations
                  if str(e.get("name", "")).startswith("task:")]
    expected_tasks = len(GRID.split(",")) * len(MANAGERS.split(","))
    if len(task_spans) != expected_tasks:
        return _fail(f"expected {expected_tasks} task spans, "
                     f"saw {len(task_spans)}")

    engine = [e for e in durations if e.get("name") == "engine.run"]
    if len(engine) != 1:
        return _fail(f"expected one engine.run span, saw {len(engine)}")
    wall_us = engine[0]["dur"]
    for lane in worker_lanes:
        busy_us = sum(e["dur"] for e in task_spans if e["pid"] == lane)
        if busy_us > wall_us * 1.2:  # lint: float-ok
            return _fail(f"lane {lane} busy {busy_us:.0f}us exceeds "
                         f"engine wall {wall_us:.0f}us")

    for task in task_spans:
        start, end = task["ts"], task["ts"] + task["dur"]
        inside = {e["name"] for e in durations
                  if e["pid"] == task["pid"] and e["name"] in STAGES
                  and e["ts"] >= start - EPSILON_US
                  and e["ts"] + e["dur"] <= end + EPSILON_US}
        missing = [name for name in STAGES if name not in inside]
        if missing:
            return _fail(f"{task['name']!r} on lane {task['pid']} holds no "
                         f"{' or '.join(missing)} span")

    print(f"OK: {len(durations)} spans, {len(worker_lanes)} worker lanes, "
          f"{len(task_spans)} tasks, engine wall {wall_us / 1e3:.1f} ms "  # lint: float-ok
          f"-> {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the sweep (default 2)")
    parser.add_argument("--out", metavar="FILE", default="trace-smoke.json",
                        help="where the Chrome trace lands "
                             "(default trace-smoke.json)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    status = repro_main([
        "sweep", "--live", "2048", "--object", "32",
        "--grid", GRID, "--managers", MANAGERS,
        "--jobs", str(args.jobs), "--trace", args.out,
    ])
    if status != 0:
        return _fail(f"repro sweep exited {status}")
    return validate_trace(Path(args.out), args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
