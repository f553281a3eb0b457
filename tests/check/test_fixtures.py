"""The fault-injection matrix: every checker flags its fixture.

This is mutation testing for the analysis layer itself — a checker that
cannot catch its own seeded fault is not checking anything.
"""

from __future__ import annotations

import pytest

from repro.check import FIXTURES, clone_events, corrupt, run_checkers
from repro.obs.tape import EventTape

FIXTURE_NAMES = [fixture.name for fixture in FIXTURES]


def test_registry_covers_every_checker():
    """Each of the five checkers has at least one fixture aimed at it."""
    targeted = {fixture.checker for fixture in FIXTURES}
    assert targeted == {
        "shadow-heap", "budget-replay", "program-model", "density",
        "determinism",
    }


def test_fixture_names_unique():
    assert len(FIXTURE_NAMES) == len(set(FIXTURE_NAMES))


def test_corrupt_unknown_name_raises():
    with pytest.raises(KeyError):
        corrupt("no-such-fault", [], None)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_is_flagged_by_its_checker(name, clean_run, clean_context):
    fixture = next(f for f in FIXTURES if f.name == name)
    corrupted = corrupt(name, clean_run.events, clean_context)
    report = run_checkers(EventTape.from_events(corrupted), clean_context)
    flagged = {(v.checker, v.rule) for v in report.violations}
    assert (fixture.checker, fixture.rule) in flagged, (
        f"fixture {name!r} ({fixture.description}) was not flagged; "
        f"findings: {flagged or 'none'}"
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_injectors_do_not_mutate_their_input(name, clean_run, clean_context):
    before = [event.to_dict() for event in clean_run.events]
    corrupt(name, clean_run.events, clean_context)
    after = [event.to_dict() for event in clean_run.events]
    assert before == after


def test_clone_events_is_a_deep_copy(clean_run):
    clones = clone_events(clean_run.events[:5])
    clones[0].seq = 10**9
    assert clean_run.events[0].seq != 10**9
    assert [c.to_dict() for c in clone_events(clean_run.events[:5])] == [
        e.to_dict() for e in clean_run.events[:5]
    ]
