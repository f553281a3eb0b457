"""End-to-end: the instrumented driver's event stream matches its result."""

import pytest

from repro.adversary import PFProgram, RobsonProgram
from repro.adversary.driver import ExecutionDriver
from repro.core.params import BoundParams
from repro.mm import create_manager
from repro.obs.export import EVENTS_FILENAME, load_run
from repro.obs.tape import EventTape
from repro.obs.telemetry import Telemetry, run_recorded


@pytest.fixture
def params() -> BoundParams:
    return BoundParams(live_space=2048, max_object=64, compaction_divisor=20.0)


def _instrumented_run(params, manager_name="sliding-compactor"):
    telemetry = Telemetry(sample_every=64)
    program = PFProgram(params)
    telemetry.instrument_program(program)
    driver = ExecutionDriver(
        params,
        create_manager(manager_name, params),
        observer=telemetry.bus,
    )
    telemetry.bind(driver)
    result = driver.run(program)
    return telemetry, result


class TestEventStreamMatchesResult:
    def test_event_counts_equal_result_counters(self, params):
        telemetry, result = _instrumented_run(params)
        registry = telemetry.registry
        assert registry.counter("events.alloc").value == result.allocation_count
        assert registry.counter("events.free").value == result.free_count
        assert registry.counter("events.move").value == result.move_count
        assert result.event_count == (
            result.allocation_count + result.free_count + result.move_count
        )

    def test_stage_transitions_cover_both_stages(self, params):
        telemetry, _ = _instrumented_run(params)
        assert telemetry.registry.counter("events.stage_transition").value >= 2

    def test_wall_clock_captured(self, params):
        _, result = _instrumented_run(params)
        assert result.wall_seconds > 0.0
        assert result.events_per_second > 0.0

    def test_sampler_cadence_over_unified_stream(self, params):
        telemetry, _ = _instrumented_run(params)
        sampler = telemetry.sampler
        assert sampler is not None
        assert sampler.events_seen == telemetry.bus.event_count
        assert len(sampler.samples) == sampler.events_seen // sampler.every

    def test_uninstrumented_result_unchanged(self, params):
        _, instrumented = _instrumented_run(params)
        plain = ExecutionDriver(
            params, create_manager("sliding-compactor", params)
        ).run(PFProgram(params))
        assert plain.heap_size == instrumented.heap_size
        assert plain.waste_factor == instrumented.waste_factor
        assert plain.allocation_count == instrumented.allocation_count
        assert plain.move_count == instrumented.move_count

    def test_robson_program_emits_stage_transitions(self):
        params = BoundParams(live_space=1024, max_object=32)
        telemetry = Telemetry()
        program = RobsonProgram(params)
        telemetry.instrument_program(program)
        driver = ExecutionDriver(
            params, create_manager("first-fit", params),
            observer=telemetry.bus,
        )
        telemetry.bind(driver)
        driver.run(program)
        assert telemetry.registry.counter("events.stage_transition").value >= 1


class TestRunRecorded:
    def test_writes_manifest_and_events(self, params, tmp_path):
        target = tmp_path / "demo"
        result = run_recorded(
            params, PFProgram(params),
            create_manager("sliding-compactor", params), target,
        )
        run = load_run(target)
        assert run.manifest["program"] == "cohen-petrank-PF"
        assert run.manifest["manager"] == result.manager_name
        assert run.manifest["result"]["heap_size"] == result.heap_size
        assert run.manifest["event_count"] == len(run.events)
        stored = EventTape.read(target / EVENTS_FILENAME)
        assert len(stored) == run.manifest["event_count"]

    def test_events_include_stage_handoff(self, params, tmp_path):
        run_recorded(
            params, PFProgram(params),
            create_manager("sliding-compactor", params), tmp_path / "r",
        )
        run = load_run(tmp_path / "r")
        transitions = run.events_of_kind("stage_transition")
        stages = {event.stage for event in transitions}
        assert {"I", "II"} <= stages
        assert any(
            event.label == "stage I -> stage II" for event in transitions
        )

    def test_seq_order_is_monotone_on_disk(self, params, tmp_path):
        run_recorded(
            params, PFProgram(params),
            create_manager("first-fit", params), tmp_path / "r",
        )
        run = load_run(tmp_path / "r")
        seqs = [event.seq for event in run.events]
        assert seqs == sorted(seqs)
        assert seqs == list(range(len(seqs)))

    def test_budget_charges_recorded_for_compactor(self, params, tmp_path):
        run_recorded(
            params, PFProgram(params),
            create_manager("sliding-compactor", params), tmp_path / "r",
        )
        run = load_run(tmp_path / "r")
        charges = run.events_of_kind("budget_charge")
        assert charges
        reasons = {event.reason for event in charges}
        assert "alloc" in reasons

    def test_on_driver_hook_sees_the_driver(self, params, tmp_path):
        captured = []
        run_recorded(
            params, PFProgram(params),
            create_manager("first-fit", params), tmp_path / "r",
            on_driver=captured.append,
        )
        assert len(captured) == 1
        assert captured[0].heap.high_water > 0
