"""Tests for trace replay from a recorded event tape."""

from repro.adversary import PFProgram, RobsonProgram, run_execution
from repro.adversary.replay import ReplayProgram, replay_against
from repro.adversary.workloads import RandomChurnWorkload
from repro.core.params import BoundParams
from repro.mm.registry import create_manager
from repro.obs.events import EventBus
from repro.obs.export import load_run
from repro.obs.tape import ALLOC, FREE, EventTape
from repro.obs.telemetry import run_recorded


def record(params, program, manager_name):
    """Run with a bus; returns the result and the bus's tape."""
    bus = EventBus()
    result = run_execution(
        params, program, create_manager(manager_name, params), observer=bus,
    )
    return result, bus.tape


class TestReplay:
    def test_same_manager_reproduces_exactly(self):
        """Replaying a non-moving run against the same policy must give
        the identical heap (determinism check)."""
        params = BoundParams(1024, 32)
        original, tape = record(params, RobsonProgram(params), "first-fit")
        replayed = replay_against(params, tape, "first-fit")
        assert replayed.heap_size == original.heap_size
        assert replayed.total_allocated == original.total_allocated

    def test_ab_comparison_different_managers(self):
        """The same stream lands differently under another policy, but
        all accounting stays consistent."""
        params = BoundParams(1024, 32)
        original, tape = record(
            params, RandomChurnWorkload(params, operations=500), "first-fit")
        replayed = replay_against(params, tape, "buddy")
        assert replayed.total_allocated == original.total_allocated
        assert replayed.live_peak <= params.live_space

    def test_skipped_frees_counted(self):
        """Replaying a *moving* run against a non-moving manager: frees
        of moved-then-freed objects re-map fine (by recorded object id),
        so nothing should be skipped for these programs."""
        params = BoundParams(1024, 32, 5.0)
        _, tape = record(params, RandomChurnWorkload(params, operations=400),
                         "sliding-compactor")
        program = ReplayProgram(tape)
        run_execution(params, program, create_manager("first-fit", params))
        assert program.skipped_frees == 0

    def test_replay_program_name(self):
        assert ReplayProgram(EventTape()).name == "replay"


class TestReplayStoredRun:
    def test_stored_pf_run_replays_row_for_row(self, tmp_path):
        """A run directory's stored tape replays P_F against first-fit
        into the same heap and the same alloc/free rows."""
        params = BoundParams(2048, 64, 20.0)
        original = run_recorded(params, PFProgram(params),
                                create_manager("first-fit", params),
                                tmp_path / "pf")
        tape = load_run(tmp_path / "pf").tape
        assert replay_against(params, tape, "first-fit").heap_size \
            == original.heap_size

        _, replayed = record(params, ReplayProgram(tape), "first-fit")
        assert list(replayed.select((ALLOC, FREE))) \
            == list(tape.select((ALLOC, FREE)))
        # object id, size, address (the stored run also timed latency).
        assert replayed.columns(ALLOC)[:3] == tape.columns(ALLOC)[:3]
        assert replayed.columns(FREE) == tape.columns(FREE)

    def test_replay_builds_no_event_objects(self, tmp_path,
                                            no_event_objects):
        params = BoundParams(2048, 64, 20.0)
        run_recorded(params, PFProgram(params),
                     create_manager("sliding-compactor", params), tmp_path)
        tape = load_run(tmp_path).tape
        with no_event_objects():
            program = ReplayProgram(tape)
        assert len(program.requests) == sum(tape.counts()[code]
                                            for code in (ALLOC, FREE))
