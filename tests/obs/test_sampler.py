"""Tests for the periodic heap sampler."""

import pytest

from repro.heap.heap import SimHeap
from repro.obs.events import EventBus
from repro.obs.sampler import HeapSampler, SamplePoint


def _emit(bus, count):
    for i in range(count):
        bus.emit_alloc(object_id=i, size=1, address=i)


class TestCadence:
    def test_samples_exactly_every_k_events(self):
        bus = EventBus()
        sampler = HeapSampler(SimHeap(), every=4).attach(bus)
        _emit(bus, 10)
        # rows 4 and 8 sample; 10 does not
        assert sampler.events_seen == 10
        assert [point.event_index for point in sampler.samples] == [4, 8]

    def test_every_one_samples_each_event(self):
        bus = EventBus()
        sampler = HeapSampler(SimHeap(), every=1).attach(bus)
        _emit(bus, 3)
        assert [point.event_index for point in sampler.samples] == [1, 2, 3]
        assert [point.seq for point in sampler.samples] == [0, 1, 2]

    def test_rejects_non_positive_cadence(self):
        with pytest.raises(ValueError):
            HeapSampler(SimHeap(), every=0)

    def test_forced_sample_marks_seq_minus_one(self):
        sampler = HeapSampler(SimHeap(), every=100)
        point = sampler.sample()
        assert point.seq == -1
        assert sampler.samples == [point]


class TestSampleContents:
    def test_snapshot_fields_reflect_heap(self):
        heap = SimHeap()
        heap.place(0, 4)
        hole = heap.place(4, 4)
        heap.place(8, 2)
        heap.free(hole.object_id)
        sampler = HeapSampler(heap, every=1, live_bound=16)
        point = sampler.sample()
        assert point.live_words == 6
        assert point.live_objects == 2
        assert point.high_water == 10
        assert point.free_words == 4
        assert point.largest_gap == 4
        assert point.waste_factor(16) == pytest.approx(10 / 16)

    def test_budget_remaining_captured(self):
        class FakeBudget:
            remaining = 7.5

        sampler = HeapSampler(SimHeap(), FakeBudget(), every=1)
        assert sampler.sample().budget_remaining == 7.5

    def test_waste_series_requires_live_bound(self):
        sampler = HeapSampler(SimHeap(), every=1)
        sampler.sample()
        with pytest.raises(ValueError):
            sampler.waste_series()

    def test_series_and_dicts(self):
        heap = SimHeap()
        heap.place(0, 8)
        sampler = HeapSampler(heap, every=1, live_bound=16)
        sampler.sample()
        xs, ys = sampler.waste_series()
        assert xs == [0]
        assert ys == [0.5]
        (record,) = sampler.to_dicts()
        assert record["high_water"] == 8
        assert set(record) == {
            field for field in SamplePoint.__dataclass_fields__
        }

    def test_waste_factor_rejects_bad_bound(self):
        sampler = HeapSampler(SimHeap(), every=1)
        point = sampler.sample()
        with pytest.raises(ValueError):
            point.waste_factor(0)
