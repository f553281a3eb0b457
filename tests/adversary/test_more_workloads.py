"""Tests for the exponential and bursty workloads."""

import pytest

from repro.adversary import (
    BurstyWorkload,
    ExponentialChurnWorkload,
    run_execution,
)
from repro.core.params import BoundParams
from repro.mm.registry import create_manager
from repro.obs.events import EventBus
from repro.obs.tape import ALLOC


PARAMS = BoundParams(2048, 64, 10.0)


class TestExponentialChurn:
    def test_contracts(self):
        workload = ExponentialChurnWorkload(PARAMS, operations=1200)
        result = run_execution(
            PARAMS, workload, create_manager("best-fit", PARAMS)
        )
        assert result.live_peak <= PARAMS.live_space
        assert result.allocation_count > 0
        assert result.free_count > 0

    def test_small_sizes_dominate(self):
        workload = ExponentialChurnWorkload(
            PARAMS, operations=800, mean_size=4.0
        )
        bus = EventBus()
        run_execution(
            PARAMS, workload, create_manager("first-fit", PARAMS),
            observer=bus,
        )
        sizes = bus.tape.columns(ALLOC)[1]
        assert len(sizes) > 0
        small = sum(1 for size in sizes if size <= 8)
        assert small / len(sizes) > 0.5

    def test_determinism(self):
        runs = [
            run_execution(
                PARAMS,
                ExponentialChurnWorkload(PARAMS, operations=500, seed=9),
                create_manager("buddy", PARAMS),
            ).heap_size
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialChurnWorkload(PARAMS, mean_size=0.0)
        with pytest.raises(ValueError):
            ExponentialChurnWorkload(PARAMS, operations=-1)


class TestBursty:
    def test_contracts(self):
        workload = BurstyWorkload(PARAMS, bursts=6)
        result = run_execution(
            PARAMS, workload, create_manager("segregated-fit", PARAMS)
        )
        assert result.live_peak <= PARAMS.live_space
        assert result.free_count > 0

    def test_survivors_accumulate(self):
        workload = BurstyWorkload(PARAMS, bursts=8, survivor_every=8)
        result = run_execution(
            PARAMS, workload, create_manager("first-fit", PARAMS)
        )
        assert result.metrics.live_words > 0

    def test_power_of_two_sizes_only(self):
        workload = BurstyWorkload(PARAMS, bursts=4)
        bus = EventBus()
        run_execution(
            PARAMS, workload, create_manager("buddy", PARAMS), observer=bus
        )
        sizes = bus.tape.columns(ALLOC)[1]
        assert len(sizes) > 0
        for value in sizes:
            assert value & (value - 1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyWorkload(PARAMS, bursts=-1)
        with pytest.raises(ValueError):
            BurstyWorkload(PARAMS, survivor_every=0)
