"""Determinism checker: same configuration ⇒ identical event stream.

Every program in this repo is deterministic — the adversaries
(:math:`P_F`, :math:`P_R`) by construction, the benign workloads by
seeded RNG — so re-running the same (program, manager, params, seed)
must reproduce the event stream *bit for bit*.  The check works over a
canonical digest:

* :func:`canonical_event_bytes` defines the canonical form of one
  event: its JSON with sorted keys and compact separators, **without**
  ``latency_ns`` — wall-clock latency is the one legitimately
  non-deterministic field; :func:`event_stream_digest` hashes (SHA-256)
  a stream of them;
* :meth:`repro.obs.tape.EventTape.digest` computes the same digest from
  a tape's columns, and :func:`~repro.obs.telemetry.run_recorded`
  stores it in the manifest as ``event_digest``;
* :class:`DeterminismChecker` recomputes the digest from the tape it
  checks and flags a mismatch against the manifest's recorded one
  (``digest-mismatch``) — which catches both a corrupted trace and a
  non-deterministic producer;
* :func:`replay_digest` actually re-runs the recorded configuration and
  returns the fresh digest, for the strongest form of the check
  (``repro check --replay``).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Mapping

from ..obs.events import TelemetryEvent
from .base import CheckContext, Checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.base import AdversaryProgram
    from ..core.params import BoundParams
    from ..obs.tape import EventTape

__all__ = [
    "canonical_event_bytes",
    "event_stream_digest",
    "DeterminismChecker",
    "replay_digest",
]

#: Fields excluded from the canonical form (timing noise).
_NONDETERMINISTIC_FIELDS = frozenset({"latency_ns"})


def canonical_event_bytes(event: TelemetryEvent) -> bytes:
    """One event's canonical JSON line (stable field order, no timing).

    This is the defining encoding of the digest: the event's
    :meth:`~repro.obs.events.TelemetryEvent.to_dict` without
    ``latency_ns``, through ``json.dumps`` with sorted keys and compact
    separators.
    """
    record = {
        key: value
        for key, value in event.to_dict().items()
        if key not in _NONDETERMINISTIC_FIELDS
    }
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def event_stream_digest(events: Iterable[TelemetryEvent]) -> str:
    """SHA-256 hex digest of a whole event stream's canonical form."""
    # Imported here: loading OpenSSL adds megabytes of resident memory
    # to every process that imports repro.check, hashing or not.
    import hashlib

    digest = hashlib.sha256()
    for event in events:
        digest.update(canonical_event_bytes(event))
    return digest.hexdigest()


class DeterminismChecker(Checker):
    """Recompute the stream digest; compare against the recorded one.

    The digest is :meth:`repro.obs.tape.EventTape.digest`, which
    formats the columns with per-kind templates instead of calling
    :func:`canonical_event_bytes` per event.  What stands behind the
    two being equal is the hypothesis differential in
    ``tests/obs/test_tape.py``: over random streams of all six kinds
    (non-ASCII strings, NaN and infinite ``remaining``, int64 extremes)
    the tape's digest equals :func:`event_stream_digest` of the same
    events.
    """

    name = "determinism"
    invariant = (
        "the canonical event-stream digest matches the one the producing "
        "run recorded (same configuration => identical stream)"
    )

    def __init__(self, context: CheckContext) -> None:
        super().__init__(context)
        #: The computed hex digest (set by :meth:`check`).
        self.digest: str | None = None

    def check(self, tape: "EventTape") -> None:
        self.digest = tape.digest()
        expected = self.context.expected_digest
        if expected is not None and self.digest != expected:
            self.report(
                "digest-mismatch",
                f"event-stream digest {self.digest} does not match the "
                f"recorded event_digest {expected}: the trace was altered "
                "or the producer is non-deterministic",
            )


# Replay -----------------------------------------------------------------------


def _rebuild_program(name: str, config: object,
                     params: "BoundParams") -> "AdversaryProgram | None":
    """A fresh program instance for a recorded run.

    ``name`` and ``config`` are the manifest's ``program`` and
    ``config`` entries.  A manifest whose ``config.task`` holds a
    :class:`~repro.parallel.tasks.SimTask` (every result-cache entry)
    is rebuilt exactly as the worker built it: by catalog short name,
    with the recorded ``program_options``.  Other manifests record only
    the program's *display* name (``program.name``, e.g.
    ``"cohen-petrank-PF"``), which resolves through the display names of
    every catalog entry with default options — what ``repro simulate
    --telemetry`` records.  One registry (:mod:`repro.adversary.catalog`)
    serves the CLI, the parallel engine and this replayer.

    Returns None for program families this module cannot reconstruct
    (custom programs recorded by library users).
    """
    from ..adversary.catalog import PROGRAM_FACTORIES, make_program

    task = config.get("task") if isinstance(config, Mapping) else None
    if isinstance(task, Mapping):
        from ..parallel.tasks import SimTask

        spec = SimTask.from_dict(task)
        return make_program(spec.program, params, **spec.options_dict())
    factories = {factory.name: factory  # type: ignore[attr-defined]
                 for factory in PROGRAM_FACTORIES.values()}
    factory = factories.get(name)
    if factory is None:
        return None
    return factory(params)


def replay_digest(manifest: Mapping[str, object]) -> str | None:
    """Re-run a recorded configuration; return the fresh stream digest.

    Returns None when the manifest names a program this module cannot
    rebuild.  Raises ``ValueError`` on malformed parameters.  The
    replay runs with a subscriber-free bus: its tape alone yields the
    digest.
    """
    from ..core.params import BoundParams
    from ..mm.registry import create_manager
    from ..obs.events import EventBus

    raw_params = manifest.get("params")
    program_name = manifest.get("program")
    manager_name = manifest.get("manager")
    if not isinstance(raw_params, Mapping) or not isinstance(program_name, str) \
            or not isinstance(manager_name, str):
        raise ValueError("manifest lacks params/program/manager")
    divisor = raw_params.get("compaction_divisor")
    params = BoundParams(
        int(raw_params["live_space"]),  # type: ignore[index, call-overload]
        int(raw_params["max_object"]),  # type: ignore[index, call-overload]
        float(divisor) if isinstance(divisor, (int, float)) else None,
    )
    program = _rebuild_program(program_name, manifest.get("config"), params)
    if program is None:
        return None

    from ..adversary.driver import ExecutionDriver

    bus = EventBus()
    if hasattr(program, "bus"):
        program.bus = bus
    driver = ExecutionDriver(params, create_manager(manager_name, params),
                             observer=bus)
    driver.run(program)
    return bus.tape.digest()
