"""Run persistence: JSONL event export and per-run manifests.

A recorded run is a directory with exactly two files:

* ``manifest.json`` — everything about the run *except* the raw events:
  parameters, configuration, wall time, peak RSS, end-of-run result
  numbers, the metrics registry and the sampled time series;
* ``events.jsonl`` — one :meth:`~repro.obs.events.TelemetryEvent.to_dict`
  record per line, in emission (``seq``) order.  Recorded runs write it
  from the bus's tape (:meth:`repro.obs.tape.EventTape.write_jsonl`);
  :func:`write_events` writes the same bytes from event objects.

The pair is the interchange format of the repository: ``repro report``
renders it, :meth:`repro.adversary.trace.TraceLog.to_jsonl` shares the
line encoding, and the benchmark JSON records point at it.  The schema
is versioned (:data:`SCHEMA_VERSION`) so later readers can refuse or
adapt old runs instead of misreading them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Union

from .events import TelemetryEvent, event_from_dict

__all__ = [
    "SCHEMA_VERSION",
    "MANIFEST_FILENAME",
    "EVENTS_FILENAME",
    "write_events",
    "read_events",
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
EVENTS_FILENAME = "events.jsonl"

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


def read_events(path: _PathLike) -> list[TelemetryEvent]:
    """Parse a JSONL event file back into typed events."""
    events: list[TelemetryEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


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
    """A loaded manifest/JSONL pair."""

    def __init__(self, directory: Path, manifest: dict,
                 events: list[TelemetryEvent]) -> None:
        self.directory = directory
        self.manifest = manifest
        self.events = events

    @property
    def live_space_bound(self) -> int:
        """The run's contract bound ``M``."""
        return int(self.manifest["params"]["live_space"])

    def events_of_kind(self, kind: str) -> list[TelemetryEvent]:
        """Every event whose ``kind`` matches, in ``seq`` order."""
        return [event for event in self.events if event.kind == kind]


def load_run(directory: _PathLike) -> RunData:
    """Load a recorded run (manifest required, events optional-but-usual)."""
    base = Path(directory)
    manifest = load_manifest(base)
    events_path = base / EVENTS_FILENAME
    events = read_events(events_path) if events_path.is_file() else []
    return RunData(base, manifest, events)
