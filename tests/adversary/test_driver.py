"""Tests for the execution driver's contract enforcement."""

import pytest

from repro.adversary.base import AdversaryProgram, ProgramView
from repro.adversary.driver import ExecutionDriver, run_execution
from repro.adversary.replay import ReplayProgram
from repro.core.params import BoundParams
from repro.heap.errors import (
    CompactionBudgetExceeded,
    LiveSpaceExceeded,
    OverlapError,
)
from repro.mm.base import MemoryManager
from repro.mm.fits import FirstFitManager
from repro.obs.events import EventBus
from repro.obs.tape import ALLOC, FREE


class ScriptProgram(AdversaryProgram):
    """Runs a callable against the view."""

    name = "script"

    def __init__(self, script):
        self.script = script

    def run(self, view: ProgramView) -> None:
        self.script(view)


def make_driver(params=None, manager=None, **kwargs):
    params = params or BoundParams(64, 16, 4.0)
    return ExecutionDriver(params, manager or FirstFitManager(), **kwargs)


class TestContractEnforcement:
    def test_live_space_cap(self):
        driver = make_driver()

        def script(view):
            for _ in range(4):
                view.allocate(16)
            view.allocate(1)  # 65th word

        with pytest.raises(LiveSpaceExceeded):
            driver.run(ScriptProgram(script))

    def test_object_size_cap(self):
        driver = make_driver()
        with pytest.raises(ValueError, match="exceeds the n"):
            driver.run(ScriptProgram(lambda view: view.allocate(17)))

    def test_nonpositive_size_rejected(self):
        driver = make_driver()
        with pytest.raises(ValueError):
            driver.run(ScriptProgram(lambda view: view.allocate(0)))

    def test_free_then_reallocate_ok(self):
        driver = make_driver()

        def script(view):
            objects = [view.allocate(16) for _ in range(4)]
            view.free(objects[0].object_id)
            view.allocate(16)

        result = driver.run(ScriptProgram(script))
        assert result.allocation_count == 5
        assert result.free_count == 1
        assert result.live_peak == 64

    def test_bad_manager_placement_rejected(self):
        class OverlappingManager(MemoryManager):
            name = "rogue-overlap"

            def place(self, size: int) -> int:
                return 0  # always address 0

        driver = make_driver(manager=OverlappingManager())

        def script(view):
            view.allocate(4)
            view.allocate(4)

        with pytest.raises(OverlapError):
            driver.run(ScriptProgram(script))

    def test_rogue_mover_hits_budget_wall(self):
        class RogueMover(MemoryManager):
            name = "rogue-mover"

            def __init__(self):
                super().__init__()
                self._last = None

            def prepare(self, size):
                if self._last is not None:
                    # Move the last object far away, repeatedly.
                    self.ctx.move(self._last, self.heap.high_water + 100)

            def place(self, size):
                from repro.mm.base import find_first_fit

                return find_first_fit(self.heap, size)

            def on_place(self, obj):
                self._last = obj.object_id

        params = BoundParams(64, 16, 1000.0)  # essentially no budget
        driver = make_driver(params=params, manager=RogueMover())

        def script(view):
            view.allocate(4)
            view.allocate(4)

        with pytest.raises(CompactionBudgetExceeded):
            driver.run(ScriptProgram(script))


class TestMeasurement:
    def test_result_fields(self):
        result = run_execution(
            BoundParams(64, 16, 4.0),
            ScriptProgram(lambda view: [view.allocate(8) for _ in range(8)]),
            FirstFitManager(),
        )
        assert result.heap_size == 64
        assert result.waste_factor == pytest.approx(1.0)
        assert result.total_allocated == 64
        assert result.total_moved == 0
        assert result.manager_name == "first-fit"
        assert result.program_name == "script"
        assert "HS=64" in result.summary()

    def test_trace_recording(self):
        bus = EventBus()
        run_execution(
            BoundParams(64, 16, 4.0),
            ScriptProgram(
                lambda view: view.free(view.allocate(8).object_id)
            ),
            FirstFitManager(),
            observer=bus,
        )
        assert list(bus.tape.select((ALLOC, FREE))) == [ALLOC, FREE]
        assert ReplayProgram(bus.tape).requests == [(ALLOC, 0, 8),
                                                    (FREE, 0, 8)]

    def test_paranoid_mode(self):
        result = run_execution(
            BoundParams(64, 16, 4.0),
            ScriptProgram(lambda view: [view.allocate(4) for _ in range(4)]),
            FirstFitManager(),
            paranoid=True,
        )
        assert result.heap_size == 16

    def test_view_observation_api(self):
        captured = {}

        def script(view):
            obj = view.allocate(8)
            captured["live"] = view.live_words
            captured["bound"] = view.live_space_bound
            captured["n"] = view.max_object
            captured["addr"] = view.address_of(obj.object_id)
            captured["is_live"] = view.is_live(obj.object_id)
            view.free(obj.object_id)
            captured["after"] = view.is_live(obj.object_id)

        run_execution(BoundParams(64, 16, 4.0), ScriptProgram(script),
                      FirstFitManager())
        assert captured == {
            "live": 8, "bound": 64, "n": 16, "addr": 0,
            "is_live": True, "after": False,
        }
