"""Unit tests for the individual checkers on synthetic event streams."""

from __future__ import annotations

from repro.check import (
    BudgetReplayChecker,
    CheckContext,
    DeterminismChecker,
    ProgramModelChecker,
    ShadowHeapChecker,
    event_stream_digest,
    run_checkers,
)
from repro.obs.events import (
    Alloc,
    BudgetCharge,
    CompactionWindow,
    Free,
    Move,
    StageTransition,
)
from repro.obs.tape import EventTape


def _feed(checker, events) -> list[str]:
    checker.check(EventTape.from_events(events))
    return [violation.rule for violation in checker.violations]


class TestShadowHeap:
    def test_clean_alloc_free_cycle(self):
        checker = ShadowHeapChecker(CheckContext())
        rules = _feed(checker, [
            Alloc(object_id=0, size=8, address=0, seq=0),
            Alloc(object_id=1, size=8, address=8, seq=1),
            Free(object_id=0, size=8, address=0, seq=2),
            Alloc(object_id=2, size=8, address=0, seq=3),
        ])
        assert rules == []

    def test_overlapping_allocations_flagged(self):
        checker = ShadowHeapChecker(CheckContext())
        rules = _feed(checker, [
            Alloc(object_id=0, size=16, address=0, seq=0),
            Alloc(object_id=1, size=16, address=8, seq=1),
        ])
        assert "overlap" in rules

    def test_double_free_flagged(self):
        checker = ShadowHeapChecker(CheckContext())
        rules = _feed(checker, [
            Alloc(object_id=0, size=8, address=0, seq=0),
            Free(object_id=0, size=8, address=0, seq=1),
            Free(object_id=0, size=8, address=0, seq=2),
        ])
        assert "double-free" in rules

    def test_free_metadata_mismatch_flagged(self):
        checker = ShadowHeapChecker(CheckContext())
        rules = _feed(checker, [
            Alloc(object_id=0, size=8, address=0, seq=0),
            Free(object_id=0, size=4, address=0, seq=1),
        ])
        assert "metadata-mismatch" in rules

    def test_move_outside_window_flagged(self):
        checker = ShadowHeapChecker(CheckContext())
        rules = _feed(checker, [
            Alloc(object_id=0, size=8, address=0, seq=0),
            Move(object_id=0, size=8, old_address=0, new_address=64, seq=1),
            Alloc(object_id=1, size=8, address=0, seq=2),
        ])
        assert "moves-without-window" in rules

    def test_move_inside_window_is_clean(self):
        checker = ShadowHeapChecker(CheckContext())
        rules = _feed(checker, [
            Alloc(object_id=0, size=8, address=0, seq=0),
            Move(object_id=0, size=8, old_address=0, new_address=64, seq=1),
            CompactionWindow(request_size=8, moves=1, moved_words=8, seq=2),
            Alloc(object_id=1, size=8, address=0, seq=3),
        ])
        assert rules == []

    def test_window_aggregate_mismatch_flagged(self):
        checker = ShadowHeapChecker(CheckContext())
        rules = _feed(checker, [
            Alloc(object_id=0, size=8, address=0, seq=0),
            Move(object_id=0, size=8, old_address=0, new_address=64, seq=1),
            CompactionWindow(request_size=8, moves=2, moved_words=16, seq=2),
            Alloc(object_id=1, size=8, address=0, seq=3),
        ])
        assert "window-mismatch" in rules


class TestBudgetReplay:
    CONTEXT = CheckContext(live_space=4096, max_object=64, divisor=4.0,
                           budget_known=True)

    def test_within_budget_is_clean(self):
        checker = BudgetReplayChecker(self.CONTEXT)
        rules = _feed(checker, [
            BudgetCharge(reason="alloc", words=64, remaining=16.0, seq=0),
            Alloc(object_id=0, size=64, address=0, seq=1),
            BudgetCharge(reason="move", words=16, remaining=0.0, seq=2),
            Move(object_id=0, size=16, old_address=0, new_address=64, seq=3),
        ])
        assert rules == []

    def test_overspend_flagged(self):
        checker = BudgetReplayChecker(self.CONTEXT)
        rules = _feed(checker, [
            BudgetCharge(reason="alloc", words=64, remaining=16.0, seq=0),
            Alloc(object_id=0, size=64, address=0, seq=1),
            BudgetCharge(reason="move", words=32, remaining=-16.0, seq=2),
            Move(object_id=0, size=32, old_address=0, new_address=64, seq=3),
        ])
        assert "overspent" in rules

    def test_remaining_drift_flagged(self):
        checker = BudgetReplayChecker(self.CONTEXT)
        rules = _feed(checker, [
            BudgetCharge(reason="alloc", words=64, remaining=17.5, seq=0),
            Alloc(object_id=0, size=64, address=0, seq=1),
        ])
        assert "ledger-drift" in rules

    def test_charge_without_heap_event_flagged(self):
        checker = BudgetReplayChecker(self.CONTEXT)
        rules = _feed(checker, [
            BudgetCharge(reason="move", words=8, remaining=0.0, seq=0),
        ])
        assert "total-mismatch" in rules or "charge-mismatch" in rules

    def test_bare_trace_compaction_not_flagged(self):
        # No manifest: c unknown, so moves must not be treated as
        # forbidden (budget_known=False distinguishes the two cases).
        checker = BudgetReplayChecker(CheckContext())
        rules = _feed(checker, [
            BudgetCharge(reason="alloc", words=64, remaining=16.0, seq=0),
            Alloc(object_id=0, size=64, address=0, seq=1),
            BudgetCharge(reason="move", words=16, remaining=0.0, seq=2),
            Move(object_id=0, size=16, old_address=0, new_address=64, seq=3),
        ])
        assert "overspent" not in rules


class TestProgramModel:
    CONTEXT = CheckContext(live_space=256, max_object=64,
                           program="cohen-petrank-PF")

    def test_oversize_flagged(self):
        checker = ProgramModelChecker(self.CONTEXT)
        rules = _feed(checker, [
            Alloc(object_id=0, size=128, address=0, seq=0),
        ])
        assert "oversize" in rules

    def test_non_power_of_two_flagged_for_pf(self):
        checker = ProgramModelChecker(self.CONTEXT)
        rules = _feed(checker, [Alloc(object_id=0, size=6, address=0, seq=0)])
        assert "non-power-of-two" in rules

    def test_non_power_of_two_allowed_for_benign_workloads(self):
        context = CheckContext(live_space=256, max_object=64,
                               program="random-churn")
        checker = ProgramModelChecker(context)
        rules = _feed(checker, [Alloc(object_id=0, size=6, address=0, seq=0)])
        assert "non-power-of-two" not in rules

    def test_live_overflow_flagged(self):
        checker = ProgramModelChecker(self.CONTEXT)
        rules = _feed(checker, [
            Alloc(object_id=0, size=64, address=0, seq=0),
            Alloc(object_id=1, size=64, address=64, seq=1),
            Alloc(object_id=2, size=64, address=128, seq=2),
            Alloc(object_id=3, size=64, address=192, seq=3),
            Alloc(object_id=4, size=64, address=256, seq=4),
        ])
        assert "live-overflow" in rules

    def test_stage_skip_flagged(self):
        checker = ProgramModelChecker(self.CONTEXT)
        rules = _feed(checker, [
            StageTransition(program="cohen-petrank-PF", stage="I", step=0,
                            label="stage I begin", seq=0),
            StageTransition(program="cohen-petrank-PF", stage="I", step=3,
                            seq=1),
        ])
        assert "stage-skip" in rules

    def test_stage_two_before_stage_one_flagged(self):
        checker = ProgramModelChecker(self.CONTEXT)
        rules = _feed(checker, [
            StageTransition(program="cohen-petrank-PF", stage="II", step=6,
                            seq=0),
        ])
        assert "stage-order" in rules


class TestDeterminism:
    def _events(self):
        return [
            Alloc(object_id=0, size=8, address=0, latency_ns=123, seq=0),
            Free(object_id=0, size=8, address=0, seq=1),
        ]

    def test_digest_ignores_latency(self):
        fast = self._events()
        slow = self._events()
        slow[0].latency_ns = 999_999
        assert event_stream_digest(fast) == event_stream_digest(slow)

    def test_digest_sensitive_to_payload(self):
        changed = self._events()
        changed[0].address = 8
        assert (event_stream_digest(self._events())
                != event_stream_digest(changed))

    def test_expected_digest_mismatch_flagged(self):
        context = CheckContext(expected_digest="0" * 64)
        checker = DeterminismChecker(context)
        rules = _feed(checker, self._events())
        assert rules == ["digest-mismatch"]

    def test_matching_digest_is_clean(self):
        expected = event_stream_digest(self._events())
        checker = DeterminismChecker(CheckContext(expected_digest=expected))
        rules = _feed(checker, self._events())
        assert rules == []


class TestRunCheckers:
    def test_report_carries_digest_note_and_order(self):
        events = [
            Alloc(object_id=0, size=16, address=0, seq=0),
            Alloc(object_id=1, size=16, address=8, seq=1),  # overlap
        ]
        report = run_checkers(EventTape.from_events(events), CheckContext())
        assert not report.ok
        assert report.event_count == 2
        assert report.notes["event_digest"] == event_stream_digest(events)
        assert any(v.rule == "overlap" for v in report.violations)
        assert "[shadow-heap] overlap" in report.describe()
