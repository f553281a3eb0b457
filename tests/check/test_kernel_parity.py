"""Digest parity: the bitmap kernel must be event-invisible.

The bitmap backend's whole contract is that it changes *wall time
only*: for any adversary program and any manager, the recorded event
stream — and therefore the canonical digest — must be byte-identical to
the reference backend's.  This matrix runs every compacting manager
(the only ones whose decision paths the kernel accelerates) against the
adversary catalog at a small simulation point and asserts digest and
final heap-size equality, plus a spot check that the non-compacting
placement policies agree too.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.adversary.catalog import program_names, make_program  # noqa: E402
from repro.adversary.driver import run_execution  # noqa: E402
from repro.core.params import BoundParams  # noqa: E402
from repro.mm.registry import create_manager, manager_names  # noqa: E402
from repro.obs.events import EventBus  # noqa: E402

#: Small enough that the full matrix stays in test-suite time; the
#: compactors still compact at this point (the PF program forces it).
_PARAMS = BoundParams(live_space=1024, max_object=32,
                      compaction_divisor=20.0)

_COMPACTING = manager_names(compacting=True)


def _digest(manager: str, program: str, kernel: str) -> tuple[str, int]:
    bus = EventBus()
    result = run_execution(
        _PARAMS,
        make_program(program, _PARAMS),
        create_manager(manager, _PARAMS),
        observer=bus,
        kernel=kernel,
    )
    return bus.tape.digest(), result.heap_size


@pytest.mark.parametrize("program", program_names())
@pytest.mark.parametrize("manager", _COMPACTING)
def test_compacting_digests_identical(manager, program):
    assert _digest(manager, program, "bitmap") == \
        _digest(manager, program, "reference")


@pytest.mark.parametrize("manager", ["first-fit", "best-fit", "buddy",
                                     "segregated-fit"])
def test_non_compacting_digests_identical(manager):
    assert _digest(manager, "pf", "bitmap") == \
        _digest(manager, "pf", "reference")
