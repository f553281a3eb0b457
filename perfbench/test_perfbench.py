"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import measure
import pins
import run
from workloads import (
    DEFAULT_CHURN_SEED,
    SOLVE_POINTS,
    PassResult,
    PFRowCheck,
    Tally,
    churn_problem,
    solve_problem,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_child_time_counts_to_the_child_layer():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)
    query = tracer.wrap(lambda: clock.advance(5), layers.QUERY)

    def prepare_body():
        clock.advance(2)
        query()
        clock.advance(1)

    tracer.wrap(prepare_body, layers.PREPARE)()
    assert tracer.layers[layers.QUERY].self_ns == 5
    assert tracer.layers[layers.PREPARE].self_ns == 3
    assert tracer.layers[layers.PREPARE].total_ns == 8


def test_same_layer_reentry_is_one_call():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)
    inner = tracer.wrap(lambda: clock.advance(4), layers.QUERY)
    outer = tracer.wrap(lambda: (clock.advance(1), inner()), layers.QUERY)
    outer()
    acc = tracer.layers[layers.QUERY]
    assert (acc.calls, acc.self_ns, acc.total_ns) == (1, 5, 5)


def test_generator_resumptions_are_timed():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def gaps():
        for item in range(3):
            clock.advance(2)
            yield item

    consumer = tracer.wrap(
        lambda: [clock.advance(10) for _ in tracer.wrap_iter(gaps, layers.QUERY)()],
        layers.PREPARE)
    consumer()
    assert tracer.layers[layers.QUERY].self_ns == 6
    assert tracer.layers[layers.QUERY].calls == 1
    assert tracer.layers[layers.PREPARE].self_ns == 30


def test_heap_query_inside_manager_prepare_counts_to_heap_query():
    from repro.heap.heap import SimHeap
    from repro.heap.intervals import IntervalSet
    from repro.mm.base import ManagerContext
    from repro.mm.budget import CompactionBudget
    from repro.mm.fits import FirstFitManager

    class QueryingManager(FirstFitManager):
        def prepare(self, size: int) -> None:
            self.covered = self.heap.occupied.overlap_words(0, 20_000)

    heap = SimHeap()
    for index in range(5000):
        heap.place(2 * index, 1)
    manager = QueryingManager()
    manager.attach(ManagerContext(heap, CompactionBudget(10.0)))
    original = IntervalSet.overlap_words

    tracer = layers.LayerTracer()
    undo = layers.install(tracer)
    try:
        for _ in range(5):
            manager.prepare(8)
    finally:
        undo()

    query = tracer.layers[layers.QUERY]
    prepare = tracer.layers[layers.PREPARE]
    assert manager.covered == 5000
    assert (query.calls, prepare.calls) == (5, 5)
    assert prepare.self_ns == prepare.total_ns - query.total_ns
    assert query.self_ns > prepare.self_ns
    assert IntervalSet.overlap_words is original
    assert "prepare" in vars(QueryingManager)
    assert not hasattr(QueryingManager.prepare, "__wrapped__")


def test_install_attributes_a_real_simulation_and_undoes():
    from repro.adversary import PFProgram, run_execution
    from repro.adversary.driver import ExecutionDriver
    from repro.core.params import BoundParams
    from repro.mm import create_manager

    params = BoundParams(512, 16, 10.0)
    original_run = ExecutionDriver.run
    tracer = layers.LayerTracer()
    undo = layers.install(tracer)
    try:
        result = run_execution(params, PFProgram(params),
                               create_manager("window-compactor", params))
    finally:
        undo()
    assert ExecutionDriver.run is original_run
    assert tracer.layers[layers.PREPARE].calls == result.allocation_count
    assert tracer.layers[layers.QUERY].calls > 0
    assert tracer.counters["mm.move.calls"] == result.move_count
    assert tracer.counters["mm.moved_words"] == result.total_moved
    assert tracer.counters["adversary.program.requests"] == (
        result.allocation_count + result.free_count)
    assert [span[0] for span in tracer.spans] == ["simulation"]


def _small_pf_result():
    from repro.core.params import BoundParams
    from repro.parallel import ParallelEngine, SimTask

    params = BoundParams(512, 16, 10.0)
    [result] = ParallelEngine(jobs=1).run([SimTask.build(params, "first-fit", "pf")])
    return result


def test_a_row_that_fails_its_check_raises_ops_failed_frac():
    result = _small_pf_result()
    check = PFRowCheck(1.5, 0.0, {"first-fit": result.event_digest})
    assert check(result) is None

    tally = Tally()
    tally.check("good", check(result))
    assert tally.ops_failed_frac == 0.0
    below_floor = replace(result, heap_size=result.task.live_space)
    tally.check("below floor", check(below_floor))
    assert tally.ops_failed_frac == 0.5
    wrong_digest = replace(result, event_digest="0" * 64)
    tally.check("digest", check(wrong_digest))
    assert (tally.attempted, tally.failed) == (3, 2)
    tally.raised("crashed", RuntimeError("boom"))
    assert tally.ops_failed_frac == 0.75


def replace_ns(ns: SimpleNamespace, **changes: object) -> SimpleNamespace:
    return SimpleNamespace(**{**vars(ns), **changes})


def test_churn_and_solve_checks():
    from repro.mm.budget import BudgetSnapshot

    ok = SimpleNamespace(live_peak=4000, heap_size=4124, total_moved=0,
                         event_count=1500,
                         budget=BudgetSnapshot(10_000, 0, 10.0))
    assert churn_problem(ok, 4096, pins.CHURN["first-fit"]) is None
    assert churn_problem(replace_ns(ok, live_peak=5000), 4096, None)
    assert churn_problem(replace_ns(ok, budget=BudgetSnapshot(100, 11, 10.0)),
                         4096, None)
    assert churn_problem(replace_ns(ok, heap_size=4125), 4096,
                         pins.CHURN["first-fit"])
    assert DEFAULT_CHURN_SEED == 11

    for live, max_object, budget, expected in SOLVE_POINTS:
        assert solve_problem(live, max_object, budget, expected, expected) is None
        assert solve_problem(live, max_object, budget, expected, expected + 1)


def test_metric_names_are_well_formed_and_declared():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name

    passes = [PassResult(wall_s=2.0, events=10, events_s=1.0,
                         phases={"record_s": 1.0})]
    produced_layer = measure.per_layer(layers.LayerTracer(), passes, passes, Tally())
    assert sorted(produced_layer) == sorted(m["name"] for m in SPEC["per_layer"])
    produced_e2e = {*measure.end_to_end(passes), "setup_s"}
    assert produced_e2e == {m["name"] for m in SPEC["end_to_end"]}
    for name in [*produced_layer, *produced_e2e]:
        assert NAME.fullmatch(name), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench" / source.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_churn_end_to_end_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # Passes on seed 5, then the pinned default-seed stream.
    assert result["attempted"] % 18 == 0 and result["attempted"] >= 36
    for metric in SPEC["end_to_end"]:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert measured["value"] > 0


def test_a_child_past_its_deadline_is_killed(tmp_path):
    started = time.perf_counter()
    with pytest.raises(run.BenchmarkError, match="timed out"):
        run.run_child(["--workload", "churn", "--seed", "1", "--seconds", "60",
                       "--work-dir", str(tmp_path / "work")],
                      run.child_env(), timeout=1.0)
    assert time.perf_counter() - started < 30
