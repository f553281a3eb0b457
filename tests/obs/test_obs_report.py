"""Tests for sparklines, trajectory replay and run rendering."""

import shutil

import pytest

from repro.adversary import PFProgram
from repro.core.params import BoundParams
from repro.mm.registry import create_manager
from repro.obs.events import Alloc, Free, Move, StageTransition
from repro.obs.export import (
    JSONL_FILENAME,
    MANIFEST_FILENAME,
    RunData,
    build_manifest,
    load_run,
)
from repro.obs.tape import EventTape
from repro.obs.report import (
    render_run,
    replay_waste_trajectory,
    sparkline,
    stage_rows,
)
from repro.obs.telemetry import run_recorded


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == "(no data)"
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_monotone_shape(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_resamples_with_bin_maximum(self):
        # 120 points into 60 cells; the single spike must survive.
        values = [0.0] * 120
        values[71] = 9.0
        line = sparkline(values, width=60)
        assert len(line) == 60
        assert "█" in line

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


def _heap_tape():
    return EventTape.from_events([
        Alloc(object_id=1, size=4, address=0, seq=0),
        Alloc(object_id=2, size=4, address=4, seq=1),
        Free(object_id=1, size=4, address=0, seq=2),
        StageTransition(program="p", stage="I", step=0, label="begin", seq=3),
        Move(object_id=2, size=4, old_address=4, new_address=12, seq=4),
        StageTransition(program="p", stage="II", step=1,
                        label="stage I -> stage II", seq=5),
    ])


class TestReplay:
    def test_replays_high_water_and_live(self):
        points = replay_waste_trajectory(_heap_tape())
        # four heap events (2 allocs, 1 free, 1 move)
        assert [p.seq for p in points] == [0, 1, 2, 4]
        assert [p.high_water for p in points] == [4, 8, 8, 16]
        assert [p.live_words for p in points] == [4, 8, 4, 4]

    def test_stage_rows_capture_state_at_boundary(self):
        rows = stage_rows(_heap_tape())
        assert [(r.stage, r.step) for r in rows] == [("I", 0), ("II", 1)]
        first, second = rows
        assert first.high_water == 8 and first.live_words == 4
        assert second.high_water == 16
        assert second.label == "stage I -> stage II"
        assert second.waste_factor(16) == 1.0


class TestRenderRun:
    def _run(self, tape, samples=()):
        manifest = build_manifest(
            program="cohen-petrank-PF",
            manager="sliding-compactor",
            params={"live_space": 16, "max_object": 4,
                    "compaction_divisor": 10.0},
            config={},
            result={"heap_size": 16, "waste_factor": 1.0,
                    "allocation_count": 2, "free_count": 1, "move_count": 1},
            samples=list(samples),
        )
        from pathlib import Path
        return RunData(Path("unused"), manifest, tape)

    def test_full_report_sections(self):
        sample = {"event_index": 4, "high_water": 8, "live_words": 4,
                  "external_fragmentation": 0.1, "budget_remaining": 3.0}
        text = render_run(self._run(_heap_tape(), [sample]))
        assert "cohen-petrank-PF vs sliding-compactor" in text
        assert "sampled series" in text
        assert "waste-factor trajectory" in text
        assert "stage progression:" in text
        assert "stage I -> stage II" in text

    def test_no_events_degrades_gracefully(self):
        text = render_run(self._run(EventTape()))
        assert "headline numbers only" in text

    def test_no_stage_transitions_noted(self):
        tape = EventTape()
        tape.append_alloc(object_id=1, size=4, address=0)
        text = render_run(self._run(tape))
        assert "no stage transitions" in text


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """A recorded P_F run (manifest plus ``events.tape``)."""
    directory = tmp_path_factory.mktemp("report") / "pf"
    params = BoundParams(2048, 64, 20.0)
    run_recorded(params, PFProgram(params),
                 create_manager("sliding-compactor", params), directory)
    return directory


class TestRenderFromTheTape:
    def test_builds_no_event_objects(self, stored_run, no_event_objects):
        run = load_run(stored_run)
        with no_event_objects():
            text = render_run(run)
        assert "waste-factor trajectory" in text
        assert "stage I -> stage II" in text

    def test_legacy_jsonl_renders_the_same(self, stored_run, tmp_path):
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        shutil.copy(stored_run / MANIFEST_FILENAME, legacy)
        load_run(stored_run).tape.write_jsonl(legacy / JSONL_FILENAME)
        assert render_run(load_run(legacy)) == render_run(load_run(stored_run))
