"""Tests for JSONL export, the run manifest and run loading."""

import json

import pytest

from repro.obs.events import Alloc, EventBus, Free, StageTransition
from repro.obs.export import (
    EVENTS_FILENAME,
    JSONL_FILENAME,
    MANIFEST_FILENAME,
    SCHEMA_VERSION,
    build_manifest,
    load_manifest,
    load_run,
    peak_rss_kb,
    read_events,
    write_events,
    write_manifest,
)


def _some_events():
    """A bus that saw three events, and the events its subscriber got."""
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.emit(Alloc(object_id=1, size=4, address=0, latency_ns=10))
    bus.emit(StageTransition(program="p", stage="I", step=0, label="begin"))
    bus.emit(Free(object_id=1, size=4, address=0))
    return bus, seen


class TestJsonl:
    def test_round_trip(self, tmp_path):
        bus, seen = _some_events()
        path = bus.tape.write_jsonl(tmp_path / "sub" / JSONL_FILENAME)
        assert read_events(path) == seen

    def test_one_sorted_json_object_per_line(self, tmp_path):
        _, seen = _some_events()
        path = write_events(tmp_path / JSONL_FILENAME, seen)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["kind"] == "alloc"
        assert list(first) == sorted(first)

    def test_writer_counts(self):
        bus, seen = _some_events()
        assert len(bus.tape) == len(seen) == 3


class TestManifest:
    def _manifest(self):
        return build_manifest(
            program="cohen-petrank-PF",
            manager="sliding-compactor",
            params={"live_space": 2048, "max_object": 64,
                    "compaction_divisor": 20.0},
            config={"sample_every": 256},
            result={"heap_size": 4000, "waste_factor": 1.95},
            metrics={"events.alloc": {"type": "counter", "value": 7}},
            samples=[{"event_index": 256, "high_water": 2100}],
            wall_seconds=0.5,
            events_per_second=1234.0,
            event_count=617,
        )

    def test_schema_fields_present(self):
        manifest = self._manifest()
        for key in ("schema", "kind", "created_unix", "program", "manager",
                    "params", "config", "wall_seconds", "events_per_second",
                    "event_count", "peak_rss_kb", "result", "metrics",
                    "samples"):
            assert key in manifest, key
        assert manifest["schema"] == SCHEMA_VERSION
        assert manifest["kind"] == "repro-run"
        assert json.dumps(manifest)  # must be JSON-serializable as-is

    def test_write_and_load(self, tmp_path):
        path = write_manifest(tmp_path / "run", self._manifest())
        assert path.name == MANIFEST_FILENAME
        loaded = load_manifest(tmp_path / "run")
        assert loaded["program"] == "cohen-petrank-PF"
        assert loaded["params"]["live_space"] == 2048

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path)

    def test_load_rejects_other_schema(self, tmp_path):
        manifest = self._manifest()
        manifest["schema"] = SCHEMA_VERSION + 1
        write_manifest(tmp_path, manifest)
        with pytest.raises(ValueError, match="schema"):
            load_manifest(tmp_path)

    def test_load_run_pairs_manifest_and_events(self, tmp_path):
        bus, seen = _some_events()
        stored, legacy = tmp_path / "stored", tmp_path / "legacy"
        bus.tape.write(stored / EVENTS_FILENAME)
        write_events(legacy / JSONL_FILENAME, seen)
        for directory in (stored, legacy):
            write_manifest(directory, self._manifest())
            run = load_run(directory)
            assert run.live_space_bound == 2048
            assert len(run.events) == 3
            assert [e.kind for e in run.events_of_kind("alloc")] == ["alloc"]

    def test_load_run_tolerates_missing_events(self, tmp_path):
        write_manifest(tmp_path, self._manifest())
        assert load_run(tmp_path).events == []


def test_peak_rss_positive_on_posix():
    rss = peak_rss_kb()
    assert rss is None or rss > 0
