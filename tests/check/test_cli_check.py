"""CLI contract for ``repro check`` and the ``--sanitize`` flags.

Exit codes are part of the interface (CI gates on them): 0 = all
invariants hold, 1 = violations found, 2 = the input could not be
loaded.
"""

from __future__ import annotations

import json

from repro.check import corrupt
from repro.cli import main
from repro.obs.export import (
    EVENTS_FILENAME,
    JSONL_FILENAME,
    load_run,
    write_events,
)
from repro.obs.tape import EventTape

#: The two run-directory layouts ``repro check`` reads.
_LAYOUTS = ("tape", "jsonl")


def _run_with(tmp_path, clean_run_dir, events, layout):
    """A run directory: the clean manifest plus ``events`` in ``layout``.

    ``tape`` stores them as a recorded run does; ``jsonl`` is the
    legacy layout (an ``events.jsonl``, as ``repro export`` writes).
    """
    directory = tmp_path / layout
    directory.mkdir()
    (directory / "manifest.json").write_text(
        (clean_run_dir / "manifest.json").read_text()
    )
    if layout == "tape":
        EventTape.from_events(events).write(directory / EVENTS_FILENAME)
    else:
        write_events(directory / JSONL_FILENAME, events)
    return directory


class TestCheckCommand:
    def test_clean_run_directory_exit_0(self, clean_run_dir, capsys):
        assert main(["check", str(clean_run_dir)]) == 0
        out = capsys.readouterr().out
        assert "OK: all invariants hold" in out
        assert "event_digest" in out

    def test_replay_flag_verifies_determinism(self, clean_run_dir, capsys):
        assert main(["check", str(clean_run_dir), "--replay"]) == 0
        assert "replay: deterministic" in capsys.readouterr().out

    def test_bare_events_file_exit_0(self, clean_run_dir, capsys):
        assert main(["check", str(clean_run_dir / EVENTS_FILENAME)]) == 0
        assert "OK: all invariants hold" in capsys.readouterr().out

    def test_corrupted_run_exit_1(self, clean_run_dir, clean_context,
                                  tmp_path, capsys):
        run = load_run(clean_run_dir)
        events = corrupt("overlap", run.events, clean_context)
        for layout in _LAYOUTS:
            bad_dir = _run_with(tmp_path, clean_run_dir, events, layout)
            assert main(["check", str(bad_dir)]) == 1, layout
            captured = capsys.readouterr()
            assert "FAIL: paper invariants violated" in captured.err
            assert "[shadow-heap] overlap" in captured.out

    def test_tampered_events_caught_by_digest(self, clean_run_dir,
                                              clean_context, tmp_path, capsys):
        run = load_run(clean_run_dir)
        events = corrupt("truncation", run.events, clean_context)
        for layout in _LAYOUTS:
            bad_dir = _run_with(tmp_path, clean_run_dir, events, layout)
            assert main(["check", str(bad_dir)]) == 1, layout
            assert "digest-mismatch" in capsys.readouterr().out

    def test_missing_path_exit_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err

    def test_schema_mismatch_exit_2(self, clean_run_dir, tmp_path, capsys):
        manifest = json.loads((clean_run_dir / "manifest.json").read_text())
        manifest["schema"] = 999
        bad_dir = tmp_path / "future"
        bad_dir.mkdir()
        (bad_dir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["check", str(bad_dir)]) == 2
        assert "unsupported" in capsys.readouterr().err

    def test_max_violations_truncates_output(self, clean_run_dir,
                                             clean_context, tmp_path, capsys):
        run = load_run(clean_run_dir)
        events = corrupt("overlap", run.events, clean_context)
        events = corrupt("truncation", events, clean_context)
        bad = tmp_path / "multi.jsonl"
        write_events(bad, events)
        assert main(["check", str(bad), "--max-violations", "1"]) == 1
        assert "more" in capsys.readouterr().out


class TestSanitizeFlags:
    def test_simulate_sanitize_clean_exit_0(self, capsys):
        assert main([
            "simulate", "--program", "pf", "--manager", "sliding-compactor",
            "--live", "2048", "--object", "64", "--c", "20", "--sanitize",
        ]) == 0
        assert "sanitizer: clean" in capsys.readouterr().out

    def test_simulate_sanitize_with_telemetry(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([
            "simulate", "--program", "pf", "--manager", "theorem2",
            "--live", "2048", "--object", "64", "--c", "20",
            "--sanitize", "--telemetry", str(run_dir),
        ]) == 0
        assert "sanitizer: clean" in capsys.readouterr().out
        assert main(["check", str(run_dir)]) == 0
