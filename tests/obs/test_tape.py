"""The event tape: one row per event, the digest and JSONL from columns."""

import hashlib
import json
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.events as events_module
import repro.obs.tape as tape_module
from repro.adversary import PFProgram
from repro.check.determinism import (
    canonical_event_bytes,
    event_stream_digest,
)
from repro.core.params import BoundParams
from repro.mm import create_manager
from repro.obs.events import Alloc, EventBus, Free
from repro.obs.export import EVENTS_FILENAME, read_tape, write_events
from repro.obs.tape import EventTape
from repro.obs.telemetry import run_recorded

_INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
_WORDS = st.integers(min_value=0, max_value=2**40)
#: Escapes, quotes, backslashes and non-ASCII, not just plain names.
_TEXT = st.one_of(
    st.sampled_from(["I", "II", "robson", 'a"b', "back\\slash", "ünï",
                     "tab\there", "", "stage I -> stage II"]),
    st.text(max_size=12),
)
#: Finite floats use float repr; NaN and the infinities force the
#: json.dumps fallback.
_REMAINING = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e16, 5e-324, float("inf"), float("nan")]),
)

#: One producer call per element: (bus method name, arguments).
_CALLS = st.one_of(
    st.tuples(st.just("emit_alloc"), st.tuples(_INT64, _WORDS, _INT64, _INT64)),
    st.tuples(st.just("emit_free"), st.tuples(_INT64, _WORDS, _INT64)),
    st.tuples(st.just("emit_move"), st.tuples(_INT64, _WORDS, _INT64, _INT64)),
    st.tuples(st.just("emit_window"), st.tuples(_WORDS, _WORDS, _INT64)),
    st.tuples(st.just("emit_stage"), st.tuples(_TEXT, _TEXT, _INT64, _TEXT)),
    st.tuples(st.just("emit_charge"), st.tuples(_TEXT, _INT64, _REMAINING)),
)


def _replay(calls, *, subscribed: bool):
    """A bus fed ``calls``; with ``subscribed`` also the events built."""
    bus = EventBus()
    seen = []
    if subscribed:
        bus.subscribe(seen.append)
    for method, args in calls:
        getattr(bus, method)(*args)
    return bus, seen


def _slow_digest(events) -> str:
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(canonical_event_bytes(event))
    return hasher.hexdigest()


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(calls=st.lists(_CALLS, max_size=40),
           block_rows=st.sampled_from([1, 3, 7, 1024]))
    def test_digest_and_jsonl_match_the_defining_encoders(
            self, tmp_path_factory, calls, block_rows):
        with mock.patch.object(tape_module, "BLOCK_ROWS", block_rows):
            bare, _ = _replay(calls, subscribed=False)
            bus, seen = _replay(calls, subscribed=True)
            assert [event.seq for event in seen] == list(range(len(calls)))
            assert len(bare.tape) == len(bus.tape) == len(calls)
            expected = _slow_digest(seen)
            assert bare.tape.digest() == expected
            assert bus.tape.digest() == expected
            directory = tmp_path_factory.mktemp("jsonl")
            reference = write_events(directory / "objects.jsonl", seen)
            for tape in (bare.tape, bus.tape):
                written = tape.write_jsonl(directory / "tape.jsonl")
                assert written.read_bytes() == reference.read_bytes()

    def test_many_blocks_of_mixed_kinds(self, tmp_path):
        rng = random.Random(7)
        calls = []
        for index in range(5000):
            roll = rng.random()
            if roll < 0.4:
                calls.append(("emit_alloc", (index, rng.randrange(1, 64),
                                             rng.randrange(1 << 20),
                                             rng.randrange(1000))))
            elif roll < 0.6:
                calls.append(("emit_free", (index, 8, rng.randrange(1 << 20))))
            elif roll < 0.7:
                calls.append(("emit_move", (index, 8, 0, 64)))
            elif roll < 0.75:
                calls.append(("emit_window", (8, 1, 8)))
            elif roll < 0.76:
                calls.append(("emit_stage", ("p", "II", index, "")))
            else:
                calls.append(("emit_charge", ("alloc", 8, rng.random() * 100)))
        bus, seen = _replay(calls, subscribed=True)
        assert bus.tape.digest() == event_stream_digest(seen)
        written = bus.tape.write_jsonl(tmp_path / "tape.jsonl")
        reference = write_events(tmp_path / "objects.jsonl", seen)
        assert written.read_bytes() == reference.read_bytes()


class TestStoredForm:
    @settings(max_examples=150, deadline=None)
    @given(calls=st.lists(_CALLS, max_size=40))
    def test_file_and_jsonl_round_trips_keep_every_row(
            self, tmp_path_factory, calls):
        tape = _replay(calls, subscribed=False)[0].tape
        directory = tmp_path_factory.mktemp("stored")
        jsonl = tape.write_jsonl(directory / "events.jsonl")
        stored = EventTape.read(tape.write(directory / "events.tape"))
        legacy = EventTape.read_jsonl(jsonl)
        for copy in (stored, legacy, read_tape(directory / "events.tape"),
                     read_tape(jsonl)):
            assert copy.counts() == tape.counts()
            assert copy.digest() == tape.digest()
            written = copy.write_jsonl(directory / "copy.jsonl")
            assert written.read_bytes() == jsonl.read_bytes()

    def test_foreign_byte_order_is_swapped_on_read(self, tmp_path):
        tape = EventTape()
        tape.append_alloc(1, 16, 2**40, 7)
        tape.append_charge("move", 3, -0.25)
        tape.append_stage("p", "I", -5, "ünï")
        header, _, _ = tape.write(tmp_path / "native.tape") \
            .read_bytes().partition(b"\n")
        fields = json.loads(header)
        fields["byteorder"] = "big" if sys.byteorder == "little" else "little"
        columns = [*tape._rows, tape._remaining]
        swapped = [column[:] for column in columns]
        for column in swapped:
            column.byteswap()
        with (tmp_path / "foreign.tape").open("wb") as handle:
            handle.write(json.dumps(fields).encode() + b"\n")
            handle.write(tape._kinds)
            for column in swapped:
                column.tofile(handle)
        foreign = EventTape.read(tmp_path / "foreign.tape")
        assert foreign.events() == tape.events()

    def test_empty_file_holds_no_rows(self, tmp_path):
        (tmp_path / "empty.tape").write_bytes(b"")
        assert len(EventTape.read(tmp_path / "empty.tape")) == 0

    def test_events_carry_row_indices(self):
        tape = EventTape.from_events([Free(1, 4, 0, seq=9),
                                      Alloc(2, 4, 0, seq=9)])
        assert [event.seq for event in tape.events()] == [0, 1]
        assert tape.events()[1] == Alloc(2, 4, 0, seq=1)


class TestTape:
    def test_empty_tape(self, tmp_path):
        tape = EventTape()
        assert len(tape) == 0
        assert tape.digest() == hashlib.sha256().hexdigest()
        assert tape.write_jsonl(tmp_path / "e.jsonl").read_bytes() == b""

    def test_rejected_row_adds_nothing(self):
        tape = EventTape()
        tape.append_alloc(1, 4, 0)
        with pytest.raises(OverflowError):
            tape.append_alloc(2, 4, 2**63)
        with pytest.raises(OverflowError):
            tape.append_charge("move", 2**64, 1.5)
        assert len(tape) == 1
        tape.append_free(1, 4, 0)
        assert tape.digest() == event_stream_digest([
            Alloc(1, 4, 0, seq=0), Free(1, 4, 0, seq=1),
        ])

    def test_digest_memo_follows_appends(self):
        tape = EventTape()
        tape.append_free(1, 4, 0)
        first = tape.digest()
        assert tape.digest() == first
        tape.append_free(2, 4, 4)
        assert tape.digest() != first

    def test_record_rejects_unknown_kinds(self):
        class Rogue(events_module.TelemetryEvent):
            kind = "rogue"

        with pytest.raises(ValueError, match="unknown telemetry event"):
            EventTape().record(Rogue())

    def test_digest_memory_is_bounded(self):
        tape = EventTape()
        for index in range(50_000):
            tape.append_alloc(index, 16, index * 16, 123)
            tape.append_charge("alloc", 16, index / 3.0)
            tape.append_move(index, 16, index * 16, index * 32)
            tape.append_free(index, 16, index * 32)
        assert len(tape) == 200_000
        tracemalloc.start()
        try:
            tape.digest()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 1024 * 1024, f"digest peaked at {peak} bytes"


class TestBusProducers:
    def test_no_subscribers_build_no_event_objects(self):
        params = BoundParams(live_space=2048, max_object=64,
                             compaction_divisor=20.0)
        bus = EventBus()
        program = PFProgram(params)
        program.bus = bus
        refuse = mock.Mock(side_effect=AssertionError("event object built"))
        with mock.patch.multiple(
                events_module, Alloc=refuse, Free=refuse, Move=refuse,
                CompactionWindow=refuse, StageTransition=refuse,
                BudgetCharge=refuse):
            from repro.adversary.driver import run_execution

            result = run_execution(params, program,
                                   create_manager("sliding-compactor", params),
                                   observer=bus)
        assert len(bus.tape) > result.event_count > 0
        refuse.assert_not_called()

    def test_recorded_run_tape_matches_what_sinks_saw(self, tmp_path):
        params = BoundParams(live_space=2048, max_object=64,
                             compaction_divisor=20.0)
        seen = []
        target = tmp_path / "run"
        run_recorded(params, PFProgram(params),
                     create_manager("window-compactor", params), target,
                     on_driver=lambda driver: driver.observer.subscribe(
                         seen.append))
        assert [event.seq for event in seen] == list(range(len(seen)))
        assert any(event.kind == "alloc" and event.latency_ns > 0
                   for event in seen)
        reference = write_events(tmp_path / "sinks.jsonl", seen)
        stored = EventTape.read(target / EVENTS_FILENAME)
        assert stored.write_jsonl(tmp_path / "stored.jsonl").read_bytes() == \
            reference.read_bytes()
