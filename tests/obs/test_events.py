"""Tests for the typed event vocabulary and the recording bus."""

import pytest

from repro.obs.events import (
    Alloc,
    BudgetCharge,
    CompactionWindow,
    EventBus,
    Free,
    Move,
    StageTransition,
    event_from_dict,
)


class TestEventBus:
    def test_emit_stamps_monotone_seq(self):
        bus = EventBus()
        for i in range(5):
            bus.emit_alloc(object_id=i, size=4, address=i * 4)
        events = bus.tape.events()
        assert events == [Alloc(object_id=i, size=4, address=i * 4, seq=i)
                          for i in range(5)]
        assert [event.seq for event in events] == [0, 1, 2, 3, 4]
        assert bus.event_count == 5


class TestEventEncoding:
    EVENTS = (
        Alloc(object_id=7, size=16, address=128, latency_ns=420, seq=0),
        Free(object_id=7, size=16, address=128, seq=1),
        Move(object_id=3, size=8, old_address=0, new_address=64, seq=2),
        CompactionWindow(request_size=32, moves=2, moved_words=16, seq=3),
        StageTransition(program="cohen-petrank-PF", stage="II", step=4,
                        label="stage I -> stage II", seq=4),
        BudgetCharge(reason="move", words=8, remaining=12.5, seq=5),
    )

    def test_to_dict_carries_kind_and_fields(self):
        record = self.EVENTS[0].to_dict()
        assert record == {
            "kind": "alloc", "object_id": 7, "size": 16, "address": 128,
            "latency_ns": 420, "seq": 0,
        }

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_dict_round_trip(self, event):
        assert event_from_dict(event.to_dict()) == event

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown telemetry event"):
            event_from_dict({"kind": "nope"})

    def test_kinds_are_distinct(self):
        kinds = {type(event).kind for event in self.EVENTS}
        assert len(kinds) == len(self.EVENTS)
