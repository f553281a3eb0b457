"""Auditing from the stored tape: layouts, malformed input, no objects.

``repro check`` reads a run directory's ``events.tape`` (or a legacy
``events.jsonl``) into columns and runs every checker over them.  A
file that is not what a writer in this repository emits is refused
with exit 2 and the file (and, for JSONL, the line) named, never a
traceback and never a pass; a non-finite ``remaining`` is a ledger lie
the budget replay reports.
"""

from __future__ import annotations

import json
import shutil
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

import repro.obs.events as events_module
from repro.check import check_run_directory
from repro.cli import main
from repro.obs.export import (
    EVENTS_FILENAME,
    JSONL_FILENAME,
    MANIFEST_FILENAME,
    load_run,
    write_events,
)
from repro.obs.tape import EventTape

_EVENT_CLASSES = (
    events_module.Alloc, events_module.Free, events_module.Move,
    events_module.CompactionWindow, events_module.StageTransition,
    events_module.BudgetCharge,
)


@contextmanager
def _no_event_objects():
    """Fail the test if any TelemetryEvent is constructed inside."""
    refuse = mock.Mock(side_effect=AssertionError("event object built"))
    with ExitStack() as stack:
        for cls in _EVENT_CLASSES:
            stack.enter_context(mock.patch.object(cls, "__init__", refuse))
        yield
    refuse.assert_not_called()


def _run_dir(tmp_path, clean_run_dir, name: str):
    """A fresh directory holding only the clean run's manifest."""
    target = tmp_path / name
    target.mkdir()
    shutil.copy(clean_run_dir / MANIFEST_FILENAME, target / MANIFEST_FILENAME)
    return target


class TestNoEventObjects:
    def test_check_run_directory(self, clean_run_dir):
        with _no_event_objects():
            report = check_run_directory(clean_run_dir)
        assert report.ok, report.describe()

    def test_sanitize_without_telemetry(self, capsys):
        with _no_event_objects():
            status = main([
                "simulate", "--program", "pf", "--manager",
                "sliding-compactor", "--live", "2048", "--object", "64",
                "--c", "20", "--sanitize",
            ])
        assert status == 0
        assert "sanitizer: clean" in capsys.readouterr().out


class TestLegacyLayout:
    def test_export_matches_the_defining_writer(self, clean_run_dir,
                                                tmp_path, capsys):
        out = tmp_path / "out" / JSONL_FILENAME
        assert main(["export", str(clean_run_dir), str(out)]) == 0
        reference = write_events(tmp_path / "objects.jsonl",
                                 load_run(clean_run_dir).events)
        assert out.read_bytes() == reference.read_bytes()
        assert "wrote" in capsys.readouterr().out

    def test_legacy_directory_gives_the_same_report(self, clean_run_dir,
                                                    tmp_path):
        legacy = _run_dir(tmp_path, clean_run_dir, "legacy")
        assert main(["export", str(clean_run_dir),
                     str(legacy / JSONL_FILENAME)]) == 0
        stored = check_run_directory(clean_run_dir)
        assert stored.ok
        assert check_run_directory(legacy).describe() == stored.describe()

    def test_export_of_a_missing_path_exit_2(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "nope"),
                     str(tmp_path / "out.jsonl")]) == 2
        assert "no such run directory" in capsys.readouterr().err

    def test_export_to_a_directory_exit_2(self, clean_run_dir, tmp_path,
                                          capsys):
        assert main(["export", str(clean_run_dir), str(tmp_path)]) == 2
        assert "cannot write" in capsys.readouterr().err


def _jsonl_lines(clean_run_dir, tmp_path) -> list[dict]:
    path = EventTape.read(clean_run_dir / EVENTS_FILENAME).write_jsonl(
        tmp_path / "clean.jsonl")
    return [json.loads(line) for line in path.read_text().splitlines()]


def _first(lines: list[dict], kind: str) -> dict:
    return next(line for line in lines if line["kind"] == kind)


def _set_bool_size(lines):
    _first(lines, "alloc")["size"] = True


def _set_float_size(lines):
    line = _first(lines, "alloc")
    line["size"] = float(line["size"])


def _set_int_remaining(lines):
    line = _first(lines, "budget_charge")
    line["remaining"] = int(line["remaining"])


def _set_int_reason(lines):
    _first(lines, "budget_charge")["reason"] = 1


def _add_key(lines):
    _first(lines, "free")["extra"] = 0


def _drop_key(lines):
    del _first(lines, "move")["new_address"]


def _shift_seq(lines):
    lines[3]["seq"] += 1


def _unknown_kind(lines):
    lines[2]["kind"] = "rogue"


#: One malformed-JSONL rule each: name -> edit of the parsed lines.
_JSONL_FAULTS = {
    "bool-for-int": _set_bool_size,
    "float-for-int": _set_float_size,
    "int-for-remaining": _set_int_remaining,
    "int-for-string": _set_int_reason,
    "extra-key": _add_key,
    "missing-key": _drop_key,
    "seq-not-line-index": _shift_seq,
    "unknown-kind": _unknown_kind,
}


class TestMalformedJsonl:
    @pytest.mark.parametrize("fault", sorted(_JSONL_FAULTS))
    def test_exit_2_naming_file_and_line(self, fault, clean_run_dir,
                                         tmp_path, capsys):
        lines = _jsonl_lines(clean_run_dir, tmp_path)
        _JSONL_FAULTS[fault](lines)
        target = _run_dir(tmp_path, clean_run_dir, fault)
        (target / JSONL_FILENAME).write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n"
                    for line in lines), encoding="utf-8")
        assert main(["check", str(target)]) == 2
        err = capsys.readouterr().err
        assert JSONL_FILENAME in err and ", line " in err

    def test_not_json_exit_2(self, clean_run_dir, tmp_path, capsys):
        target = _run_dir(tmp_path, clean_run_dir, "garbage")
        (target / JSONL_FILENAME).write_text('{"kind": "alloc"\n')
        assert main(["check", str(target)]) == 2
        assert "line 1" in capsys.readouterr().err


def _tape_bytes(clean_run_dir) -> tuple[dict, bytes]:
    data = (clean_run_dir / EVENTS_FILENAME).read_bytes()
    first, _, columns = data.partition(b"\n")
    return json.loads(first), columns


def _header(header: dict) -> bytes:
    return json.dumps(header).encode() + b"\n"


def _short_column(header, columns):
    return _header(header) + columns[:-8]


def _counts_disagree(header, columns):
    # One alloc row becomes a move row: both kinds are four fields wide,
    # so the file still has the size the header's counts need.
    counts = header["counts"]
    counts[0] -= 1
    counts[2] += 1
    return _header(header) + columns


def _huge_count(header, columns):
    header["counts"][0] = 2**70
    return _header(header) + columns


def _count_beyond_the_file(header, columns):
    header["counts"][0] += 2**40
    return _header(header) + columns


def _unknown_code(header, columns):
    return _header(header) + b"\x09" + columns[1:]


def _trailing_bytes(header, columns):
    return _header(header) + columns + b"\x00"


def _unknown_version(header, columns):
    header["version"] = 99
    return _header(header) + columns


def _string_id_outside_table(header, columns):
    header["strings"] = header["strings"][:1]
    return _header(header) + columns


#: One malformed-tape rule each: name -> ((header, columns) -> file
#: bytes, a fragment of the error that rule raises).
_TAPE_FAULTS = {
    "short-column": (_short_column, "the header's counts need"),
    "counts-disagree": (_counts_disagree, "rows, the header"),
    "huge-count": (_huge_count, "the header's counts need"),
    "count-beyond-the-file": (_count_beyond_the_file,
                              "the header's counts need"),
    "unknown-kind-code": (_unknown_code, "unknown kind code"),
    "trailing-bytes": (_trailing_bytes, "trailing bytes"),
    "unknown-version": (_unknown_version, "unsupported"),
    "string-id-outside-table": (_string_id_outside_table,
                                "string id outside"),
}


class TestMalformedTape:
    @pytest.mark.parametrize("fault", sorted(_TAPE_FAULTS))
    def test_exit_2_naming_the_file(self, fault, clean_run_dir, tmp_path,
                                    capsys):
        header, columns = _tape_bytes(clean_run_dir)
        target = _run_dir(tmp_path, clean_run_dir, fault)
        build, fragment = _TAPE_FAULTS[fault]
        (target / EVENTS_FILENAME).write_bytes(build(header, columns))
        assert main(["check", str(target)]) == 2
        err = capsys.readouterr().err
        assert EVENTS_FILENAME in err and fragment in err


class TestNonFiniteRemaining:
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("form", ["jsonl", "tape"])
    def test_reported_as_ledger_drift(self, value, form, clean_run_dir,
                                      tmp_path, capsys):
        events = load_run(clean_run_dir).events
        charge = next(event for event in events
                      if event.kind == "budget_charge")
        charge.remaining = value
        target = _run_dir(tmp_path, clean_run_dir, f"{form}-{value}")
        if form == "jsonl":
            write_events(target / JSONL_FILENAME, events)
        else:
            EventTape.from_events(events).write(target / EVENTS_FILENAME)
        assert main(["check", str(target)]) == 1
        out = capsys.readouterr().out
        assert f"[budget-replay] ledger-drift at event #{charge.seq}" in out
