"""Acceptance: real executions pass the full checker set clean.

A sanitizer that false-positives on correct runs would make
``--sanitize`` unusable; these tests pin the clean baseline for the
paper's two adversaries and the Theorem-2 manager (whose lazy
in-``place()`` compaction is exactly the shape that once confused the
window accounting).
"""

from __future__ import annotations

import pytest

from repro.adversary.driver import run_execution
from repro.adversary.pf_program import PFProgram
from repro.adversary.robson_program import RobsonProgram
from repro.check import (
    CheckContext,
    InvariantViolationError,
    Sanitizer,
    check_run_directory,
    event_stream_digest,
    replay_digest,
)
from repro.core.params import BoundParams
from repro.mm.registry import create_manager
from repro.obs.events import Alloc, EventBus

# Mirrors tests/check/conftest.py (test dirs are not packages, so the
# constants cannot be imported from there).
CHECK_PARAMS = BoundParams(live_space=4096, max_object=64,
                           compaction_divisor=20.0)
CHECK_MANAGER = "sliding-compactor"


def _sanitized_run(params, program, manager_name) -> None:
    """Run online with the full checker set; raises on any violation."""
    manager = create_manager(manager_name, params)
    sanitizer = Sanitizer(CheckContext.from_params(
        params, program=program.name, manager=manager_name,
    ))
    sanitizer.attach_program(program)
    bus = EventBus()
    sanitizer.attach(bus)
    if hasattr(program, "bus"):
        program.bus = bus
    run_execution(params, program, manager, observer=bus)
    sanitizer.finish()  # raises InvariantViolationError if not clean


@pytest.mark.parametrize("manager_name", [
    "sliding-compactor",
    "theorem2",      # compacts lazily inside place()
    "bp-collector",
    "first-fit",
])
def test_pf_runs_clean(manager_name):
    _sanitized_run(CHECK_PARAMS, PFProgram(CHECK_PARAMS), manager_name)


def test_robson_runs_clean():
    params = BoundParams(live_space=4096, max_object=64)
    _sanitized_run(params, RobsonProgram(params), "robson")


def test_recorded_run_checks_clean_offline(clean_run_dir):
    report = check_run_directory(clean_run_dir)
    assert report.ok, report.describe()
    assert report.event_count > 0


def test_offline_digest_matches_manifest(clean_run, clean_context):
    assert clean_context.expected_digest is not None
    assert event_stream_digest(clean_run.events) == clean_context.expected_digest


def test_replay_digest_reproduces_the_run(clean_run):
    digest = replay_digest(clean_run.manifest)
    assert digest == clean_run.manifest["event_digest"]


def test_same_seed_same_digest():
    """The determinism contract itself: two fresh executions, one digest."""
    streams = []
    for _ in range(2):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        program = PFProgram(CHECK_PARAMS)
        program.bus = bus
        run_execution(
            CHECK_PARAMS, program,
            create_manager(CHECK_MANAGER, CHECK_PARAMS), observer=bus,
        )
        streams.append(event_stream_digest(events))
    assert streams[0] == streams[1]


def test_experiment_grid_runs_sanitized():
    """The ``sanitize=`` plumbing through the experiment grid."""
    from repro.analysis.experiments import pf_experiment

    rows = pf_experiment(CHECK_PARAMS, ("sliding-compactor",), sanitize=True)
    assert len(rows) == 1  # no InvariantViolationError raised


def test_sanitizer_raises_on_violation():
    bus = EventBus()
    sanitizer = Sanitizer(CheckContext()).attach(bus)
    bus.emit(Alloc(object_id=0, size=16, address=0))
    bus.emit(Alloc(object_id=1, size=16, address=8))  # overlap
    with pytest.raises(InvariantViolationError) as excinfo:
        sanitizer.finish()
    assert any(v.rule == "overlap" for v in excinfo.value.violations)
    # Non-raising mode still reports.
    report = sanitizer.finish(raise_on_violation=False)
    assert not report.ok
