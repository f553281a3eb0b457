"""``repro check --replay`` on result-cache entries with program options.

A cache entry's manifest carries the worker's :class:`SimTask` under
``config.task``; the replay must rebuild the program with the recorded
``program_options``, not the factory defaults, or a faithful entry
reports a false digest mismatch.
"""

from __future__ import annotations

from repro.check import replay_digest
from repro.cli import main
from repro.core.params import BoundParams
from repro.obs.export import load_manifest
from repro.parallel import SimTask, run_task


def _recorded_entry(tmp_path):
    task = SimTask.build(BoundParams(2048, 64, 20.0), "window-compactor",
                         "pf", density_exponent=1)
    result = run_task(task, record_root=str(tmp_path))
    [entry] = [path for path in tmp_path.iterdir() if path.is_dir()]
    return result, entry


def test_replay_rebuilds_recorded_program_options(tmp_path):
    result, entry = _recorded_entry(tmp_path)
    manifest = load_manifest(entry)
    assert manifest["event_digest"] == result.event_digest
    assert replay_digest(manifest) == manifest["event_digest"]


def test_cli_replay_of_cache_entry_is_deterministic(tmp_path, capsys):
    _, entry = _recorded_entry(tmp_path)
    assert main(["check", str(entry), "--replay"]) == 0
    assert "replay: deterministic" in capsys.readouterr().out
