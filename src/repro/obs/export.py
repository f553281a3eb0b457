"""Run persistence: the stored event tape, its JSONL export, manifests.

A recorded run is a directory with two files:

* ``manifest.json`` — everything about the run *except* the raw events:
  parameters, configuration, wall time, peak RSS, end-of-run result
  numbers, the metrics registry and the sampled time series;
* ``events.tape`` (:data:`EVENTS_FILENAME`) — the bus's
  :class:`~repro.obs.tape.EventTape`, stored by
  :meth:`~repro.obs.tape.EventTape.write`: a JSON header line, then
  the raw columns.

``events.jsonl`` — one :meth:`~repro.obs.events.TelemetryEvent.to_dict`
record per line, in ``seq`` order — is an export (``repro export``,
:meth:`~repro.obs.tape.EventTape.write_jsonl`); :func:`write_events`
writes the same bytes from event objects.  Directories recorded before
the tape was stored hold ``events.jsonl`` (:data:`JSONL_FILENAME`)
instead: :func:`load_run` reads either into the same columns
(:func:`read_tape` tells the forms apart by their first bytes), so
``repro check``, ``repro report`` and the result cache serve old and
new runs alike.  The manifest schema is versioned
(:data:`SCHEMA_VERSION`) so later readers can refuse or adapt old runs
instead of misreading them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Union

from .events import TelemetryEvent
from .tape import EventTape

__all__ = [
    "SCHEMA_VERSION",
    "MANIFEST_FILENAME",
    "EVENTS_FILENAME",
    "JSONL_FILENAME",
    "write_events",
    "read_events",
    "read_tape",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "RunData",
    "load_run",
    "peak_rss_kb",
]

#: Bump on any incompatible manifest / JSONL change.
SCHEMA_VERSION = 1

MANIFEST_FILENAME = "manifest.json"
#: The stored tape of a recorded run.
EVENTS_FILENAME = "events.tape"
#: The JSONL form: ``repro export``'s output, and the events of runs
#: recorded before the tape was stored.
JSONL_FILENAME = "events.jsonl"

_PathLike = Union[str, Path]


def peak_rss_kb() -> int | None:
    """This process's peak resident set size in KiB (None if unknown).

    Uses ``resource.getrusage``; ``ru_maxrss`` is KiB on Linux and bytes
    on macOS — normalized here to KiB.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        rss //= 1024
    return int(rss)


def write_events(path: _PathLike, events: list[TelemetryEvent]) -> Path:
    """Serialize ``events`` to JSONL at ``path`` (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return target


def read_tape(path: _PathLike) -> EventTape:
    """Read a stored tape or a JSONL event file, told apart by its start.

    Raises ``ValueError`` naming the file (and line, for JSONL) when
    the content is malformed.
    """
    if EventTape.is_stored(path):
        return EventTape.read(path)
    return EventTape.read_jsonl(path)


def read_events(path: _PathLike) -> list[TelemetryEvent]:
    """Parse an event file (either form) back into typed events."""
    return read_tape(path).events()


def build_manifest(
    *,
    program: str,
    manager: str,
    params: dict,
    config: dict,
    result: dict,
    metrics: dict | None = None,
    samples: list[dict] | None = None,
    wall_seconds: float = 0.0,
    events_per_second: float = 0.0,
    event_count: int = 0,
    event_digest: str | None = None,
    profile: dict | None = None,
) -> dict:
    """Assemble a schema-versioned manifest dict (see module docs).

    ``event_digest`` is the canonical event-stream digest (see
    :func:`repro.check.determinism.event_stream_digest`), which lets
    ``repro check`` detect trace tampering and replay divergence.
    ``profile`` is the optional span-profile block
    (:func:`repro.obs.profile.profile_block`) — out-of-band timing, so
    its presence never changes the digest; readers treat the key as
    optional (pre-tracing manifests simply lack it).
    """
    manifest = {
        "schema": SCHEMA_VERSION,
        "kind": "repro-run",
        "created_unix": time.time(),
        "program": program,
        "manager": manager,
        "params": params,
        "config": config,
        "wall_seconds": wall_seconds,
        "events_per_second": events_per_second,
        "event_count": event_count,
        "event_digest": event_digest,
        "peak_rss_kb": peak_rss_kb(),
        "result": result,
        "metrics": metrics or {},
        "samples": samples or [],
    }
    if profile is not None:
        manifest["profile"] = profile
    return manifest


def write_manifest(directory: _PathLike, manifest: dict) -> Path:
    """Write ``manifest.json`` into ``directory`` (created if needed)."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / MANIFEST_FILENAME
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_manifest(directory: _PathLike) -> dict:
    """Read and schema-check a run directory's manifest."""
    path = Path(directory) / MANIFEST_FILENAME
    if not path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_FILENAME} in {directory}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    schema = manifest.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema {schema!r} unsupported (expected {SCHEMA_VERSION})"
        )
    return manifest


class RunData:
    """A loaded run directory: its manifest and its event tape."""

    def __init__(self, directory: Path, manifest: dict,
                 tape: EventTape) -> None:
        self.directory = directory
        self.manifest = manifest
        self.tape = tape
        self._events: list[TelemetryEvent] | None = None

    @property
    def live_space_bound(self) -> int:
        """The run's contract bound ``M``."""
        return int(self.manifest["params"]["live_space"])

    @property
    def events(self) -> list[TelemetryEvent]:
        """Every event as an object, built once from the tape on first use.

        For tests; the checkers, ``repro report`` and replay read
        :attr:`tape` directly.
        """
        if self._events is None:
            self._events = self.tape.events()
        return self._events

    def events_of_kind(self, kind: str) -> list[TelemetryEvent]:
        """Every event whose ``kind`` matches, in ``seq`` order."""
        return [event for event in self.events if event.kind == kind]


def load_run(directory: _PathLike) -> RunData:
    """Load a recorded run (manifest required, events optional-but-usual).

    The events come from ``events.tape``, else from a legacy
    ``events.jsonl``; a directory with neither loads with no events.
    """
    base = Path(directory)
    manifest = load_manifest(base)
    for name in (EVENTS_FILENAME, JSONL_FILENAME):
        if (base / name).is_file():
            return RunData(base, manifest, read_tape(base / name))
    return RunData(base, manifest, EventTape())
