"""The span tracer: hierarchy, cost tiers, adoption, digest neutrality."""

from __future__ import annotations

import json
import threading

import pytest

from repro.adversary import PFProgram
from repro.adversary.catalog import make_program
from repro.adversary.driver import ExecutionDriver
from repro.core.params import BoundParams
from repro.mm import create_manager
from repro.obs.events import EventBus, StageTransition
from repro.obs.export import EVENTS_FILENAME, load_manifest
from repro.obs.tape import EventTape
from repro.obs.profile import aggregate_spans, lane_wall_ns, render_top
from repro.obs.telemetry import run_recorded
from repro.obs.trace import (
    MAIN_LANE,
    NULL_TRACER,
    TRACE_FILENAME,
    Span,
    Tracer,
    active_tracer,
    read_trace,
    to_chrome_trace,
    write_trace,
)


@pytest.fixture
def params() -> BoundParams:
    return BoundParams(live_space=2048, max_object=64,
                       compaction_divisor=20.0)


def stage_rows(tape):
    """``(span name, attrs)`` each stage row of ``tape`` asks for, in order."""
    return [(f"stage:{event.stage}", {"program": event.program,
                                      "step": event.step,
                                      "label": event.label})
            for event in tape.events()
            if isinstance(event, StageTransition)]


class TestTracerCore:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Spans record on end, so the inner one lands first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert inner.duration_ns > 0
        assert outer.duration_ns >= inner.duration_ns

    def test_imperative_begin_end_and_attrs(self):
        tracer = Tracer()
        span = tracer.begin("work", size=7)
        assert span is not None
        span.set(moved=3)
        tracer.end(span)
        assert tracer.spans[0].attrs == {"size": 7, "moved": 3}

    def test_out_of_order_end_unwinds_to_the_span(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        tracer.end(outer)  # inner still open: unwound, not leaked
        assert tracer.current is None

    def test_close_open_flushes_the_stack(self):
        tracer = Tracer()
        tracer.begin("a")
        tracer.begin("b")
        tracer.close_open()
        assert tracer.current is None
        assert {s.name for s in tracer.spans} == {"a", "b"}
        assert all(s.duration_ns > 0 for s in tracer.spans)

    def test_mark_and_spans_since(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        mark = tracer.mark()
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.spans_since(mark)] == ["after"]

    def test_max_spans_drops_and_counts(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        parents = {}

        def worker(name: str) -> None:
            with tracer.span(name) as span:
                parents[name] = span.parent_id

        with tracer.span("main-root"):
            threads = [threading.Thread(target=worker, args=(f"t{i}",))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Worker threads never see the main thread's open span.
        assert parents == {"t0": None, "t1": None}


class TestDisabledTier:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as span:
            span.set(anything=1)
        assert tracer.begin("also-ignored") is None
        assert tracer.spans == []

    def test_active_tracer_collapses_disabled_to_none(self):
        assert active_tracer(None) is None
        assert active_tracer(Tracer(enabled=False)) is None
        assert active_tracer(NULL_TRACER) is None
        live = Tracer()
        assert active_tracer(live) is live

    def test_driver_hoists_the_disabled_tracer(self, params):
        driver = ExecutionDriver(
            params, create_manager("first-fit", params),
            tracer=Tracer(enabled=False),
        )
        assert driver.tracer is None


class TestAdoption:
    def _foreign_records(self):
        worker = Tracer()
        with worker.span("task:first-fit/pf"):
            with worker.span("run"):
                pass
        return worker.to_dicts()

    def test_adopt_rewrites_ids_lane_and_root_parent(self):
        parent = Tracer()
        anchor = parent.begin("engine.run")
        adopted = parent.adopt(self._foreign_records(), lane=3,
                               parent=anchor)
        parent.end(anchor)
        by_name = {span.name: span for span in adopted}
        task = by_name["task:first-fit/pf"]
        run = by_name["run"]
        assert task.parent_id == anchor.span_id
        assert run.parent_id == task.span_id  # internal edge preserved
        assert {span.lane for span in adopted} == {3}
        local_ids = {span.span_id for span in parent.spans}
        assert len(local_ids) == len(parent.spans)  # fresh, unique ids

    def test_adopt_respects_max_spans(self):
        parent = Tracer(max_spans=1)
        with parent.span("only"):
            pass
        adopted = parent.adopt(self._foreign_records(), lane=1)
        assert adopted == []
        assert parent.dropped == 2

    def test_disabled_parent_adopts_nothing(self):
        parent = Tracer(enabled=False)
        assert parent.adopt(self._foreign_records(), lane=1) == []


class TestPersistence:
    def test_round_trip_through_run_directory(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", size=5):
            with tracer.span("inner"):
                pass
        target = write_trace(tmp_path, tracer.spans)
        assert target == tmp_path / TRACE_FILENAME
        loaded = read_trace(tmp_path)
        assert [s.to_dict() for s in loaded] == tracer.to_dicts()

    def test_read_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path)

    def test_chrome_export_structure(self):
        tracer = Tracer()
        with tracer.span("run", manager="first-fit"):
            pass
        tracer.adopt(
            [Span(1, None, "task:x", 10, 20).to_dict()], lane=1
        )
        document = to_chrome_trace(tracer.spans, trace_name="unit")
        assert document["otherData"] == {"name": "unit", "lanes": 2}
        names = [e["args"]["name"] for e in document["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert names == ["main", "worker-1"]
        durations = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in durations} == {"run", "task:x"}
        assert all(e["dur"] > 0 for e in durations)
        json.dumps(document)  # must be serializable as-is

    def test_chrome_export_skips_open_spans(self):
        open_span = Span(1, None, "still-open", start_ns=100)
        document = to_chrome_trace([open_span])
        assert document["traceEvents"] == []


class TestDriverIntegration:
    def _traced_run(self, params, *, fine=True):
        tracer = Tracer(fine=fine)
        program = PFProgram(params)
        driver = ExecutionDriver(
            params, create_manager("sliding-compactor", params),
            tracer=tracer,
        )
        result = driver.run(program)
        return tracer, result

    def test_fine_trace_covers_every_operation(self, params):
        tracer, result = self._traced_run(params)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["run"]) == 1
        assert len(by_name["alloc"]) == result.allocation_count
        assert len(by_name["free"]) == result.free_count
        assert len(by_name["move"]) == result.move_count
        run_span = by_name["run"][0]
        assert run_span.attrs["manager"] == "sliding-compactor"
        assert run_span.attrs["heap_size"] == result.heap_size
        assert all(s.attrs["size"] > 0 for s in by_name["alloc"])

    def test_coarse_trace_has_no_operation_spans(self, params):
        tracer, _ = self._traced_run(params, fine=False)
        names = {span.name for span in tracer.spans}
        assert "run" in names
        assert not names & {"alloc", "free", "move", "budget.move"}

    def test_profile_aggregation_over_a_real_trace(self, params):
        tracer, _ = self._traced_run(params)
        stats = aggregate_spans(tracer.spans)
        assert stats["run"].count == 1
        # Self time excludes children: the run span's self is less than
        # its total because alloc/free/move nest inside it.
        assert stats["run"].self_ns < stats["run"].total_ns
        assert lane_wall_ns(tracer.spans)[MAIN_LANE] > 0
        table = render_top(tracer.spans, limit=len(stats))
        assert "run" in table

    @pytest.mark.parametrize("with_bus", [True, False],
                             ids=["bus", "no-bus"])
    @pytest.mark.parametrize("program_name", ["pf", "robson"])
    def test_one_stage_span_per_stage_row(self, params, program_name,
                                          with_bus):
        # The rows come from a bus run: a bus-less run has no tape.
        reference = EventBus()
        ExecutionDriver(params, create_manager("sliding-compactor", params),
                        observer=reference).run(
            make_program(program_name, params))
        rows = stage_rows(reference.tape)
        assert rows

        tracer = Tracer()
        bus = EventBus() if with_bus else None
        ExecutionDriver(params, create_manager("sliding-compactor", params),
                        observer=bus, tracer=tracer).run(
            make_program(program_name, params))
        if bus is not None:
            assert stage_rows(bus.tape) == rows
        # Every span closed when run() returned.
        assert tracer.current is None
        assert all(span.end_ns > 0 for span in tracer.spans)
        (run_span,) = [span for span in tracer.spans if span.name == "run"]
        stages = sorted((span for span in tracer.spans
                         if span.name.startswith("stage:")),
                        key=lambda span: span.span_id)
        assert [(span.name, span.attrs) for span in stages] == rows
        assert all(span.parent_id == run_span.span_id for span in stages)

    @pytest.mark.parametrize("program_name", ["pf", "robson"])
    def test_recorded_profile_lists_the_stage_spans(self, params,
                                                    program_name, tmp_path):
        tracer = Tracer()
        run_recorded(params, make_program(program_name, params),
                     create_manager("sliding-compactor", params), tmp_path,
                     tracer=tracer)
        rows = stage_rows(EventTape.read(tmp_path / EVENTS_FILENAME))
        stages = sorted((span for span in tracer.spans
                         if span.name.startswith("stage:")),
                        key=lambda span: span.span_id)
        phases = [phase for phase in load_manifest(tmp_path)["profile"]["phases"]
                  if phase["name"].startswith("stage:")]
        assert rows
        assert [(span.name, span.attrs) for span in stages] == rows
        assert [(phase["name"], phase["attrs"]) for phase in phases] == rows


class TestDigestNeutrality:
    def test_event_digest_identical_with_and_without_tracing(
            self, params, tmp_path):
        digests = {}
        for label, tracer in (("plain", None), ("traced", Tracer(fine=True))):
            target = tmp_path / label
            run_recorded(
                params, PFProgram(params),
                create_manager("sliding-compactor", params),
                target, tracer=tracer,
            )
            digests[label] = load_manifest(target)["event_digest"]
        assert digests["plain"] == digests["traced"]

    def test_traced_run_dir_gains_trace_and_profile(self, params, tmp_path):
        run_recorded(
            params, PFProgram(params),
            create_manager("sliding-compactor", params),
            tmp_path, tracer=Tracer(fine=True),
        )
        assert (tmp_path / TRACE_FILENAME).is_file()
        manifest = load_manifest(tmp_path)
        profile = manifest["profile"]
        assert profile["span_count"] == len(read_trace(tmp_path))
        assert profile["wall_ns"] > 0
        assert manifest["config"]["trace_fine"] is True
