"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

import repro.obs.events as obs_events
from repro.core.params import MB, BoundParams


@pytest.fixture
def paper_params() -> BoundParams:
    """The paper's Figure-1 setting without a compaction budget."""
    return BoundParams(live_space=256 * MB, max_object=1 * MB)


@pytest.fixture
def tiny_params() -> BoundParams:
    """A fast simulation-scale point: M=4096, n=64, no compaction."""
    return BoundParams(live_space=4096, max_object=64)


@pytest.fixture
def tiny_compaction_params() -> BoundParams:
    """A fast simulation-scale point with a budget: M=8192, n=128, c=50."""
    return BoundParams(live_space=8192, max_object=128, compaction_divisor=50)


@contextmanager
def _refusing_event_objects():
    refuse = mock.Mock(side_effect=AssertionError("event object built"))
    with ExitStack() as stack:
        for cls in (obs_events.Alloc, obs_events.Free, obs_events.Move,
                    obs_events.CompactionWindow, obs_events.StageTransition,
                    obs_events.BudgetCharge):
            stack.enter_context(mock.patch.object(cls, "__init__", refuse))
        yield
    refuse.assert_not_called()


@pytest.fixture
def no_event_objects():
    """A context manager that fails the test if any
    :class:`~repro.obs.events.TelemetryEvent` is constructed inside it."""
    return _refusing_event_objects
