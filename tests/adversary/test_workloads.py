"""Tests for the benign workloads."""

import pytest

from repro.adversary.driver import run_execution
from repro.adversary.workloads import (
    PhasedWorkload,
    RandomChurnWorkload,
    SawtoothWorkload,
)
from repro.core.params import BoundParams
from repro.mm.registry import create_manager
from repro.obs.events import EventBus
from repro.obs.tape import ALLOC


def params_with_c() -> BoundParams:
    return BoundParams(2048, 64, 10.0)


class TestRandomChurn:
    def test_respects_contracts(self):
        params = params_with_c()
        workload = RandomChurnWorkload(params, operations=800)
        result = run_execution(params, workload, create_manager("first-fit", params))
        assert result.live_peak <= params.live_space
        assert result.allocation_count > 0
        assert result.free_count > 0

    def test_deterministic_given_seed(self):
        params = params_with_c()
        results = [
            run_execution(
                params,
                RandomChurnWorkload(params, operations=500, seed=42),
                create_manager("best-fit", params),
            ).heap_size
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_powers_of_two_mode(self):
        params = params_with_c()
        workload = RandomChurnWorkload(params, operations=300, powers_of_two=True)
        bus = EventBus()
        run_execution(
            params, workload, create_manager("buddy", params), observer=bus
        )
        sizes = bus.tape.columns(ALLOC)[1]
        assert len(sizes) > 0
        for value in sizes:
            assert value & (value - 1) == 0  # power of two
            assert value <= params.max_object

    def test_validation(self):
        params = params_with_c()
        with pytest.raises(ValueError):
            RandomChurnWorkload(params, target_load=0.0)
        with pytest.raises(ValueError):
            RandomChurnWorkload(params, operations=-1)


class TestSawtooth:
    def test_cycles_fill_to_m(self):
        params = params_with_c()
        workload = SawtoothWorkload(params, cycles=3)
        result = run_execution(params, workload, create_manager("first-fit", params))
        assert result.live_peak > params.live_space * 0.9
        assert result.free_count > 0

    def test_survivors_fraction(self):
        params = params_with_c()
        workload = SawtoothWorkload(params, cycles=1, survivor_fraction=0.5)
        result = run_execution(params, workload, create_manager("first-fit", params))
        # After one cycle roughly half the peak remains live.
        assert result.metrics.live_words == pytest.approx(
            params.live_space * 0.5, rel=0.2
        )

    def test_validation(self):
        params = params_with_c()
        with pytest.raises(ValueError):
            SawtoothWorkload(params, survivor_fraction=1.0)
        with pytest.raises(ValueError):
            SawtoothWorkload(params, object_size=params.max_object * 2)


class TestPhased:
    def test_pins_then_churns(self):
        params = params_with_c()
        workload = PhasedWorkload(params, phases=2)
        result = run_execution(params, workload, create_manager("first-fit", params))
        assert result.live_peak <= params.live_space
        # Phase A leaves long-lived pins alive at the end.
        assert result.metrics.live_words > 0

    def test_fragmentation_shows_up_without_compaction(self):
        """The motivating scenario: pinned small objects force the large
        phase-B objects above them — waste factor strictly over 1."""
        params = params_with_c()
        result = run_execution(
            params, PhasedWorkload(params), create_manager("first-fit", params)
        )
        assert result.waste_factor > 1.0

    def test_validation(self):
        params = params_with_c()
        with pytest.raises(ValueError):
            PhasedWorkload(params, pinned_fraction=0.0)
