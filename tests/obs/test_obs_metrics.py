"""Tests for counters, gauges, histograms and the tape collector."""

import pytest

from repro.obs.events import (
    Alloc,
    BudgetCharge,
    CompactionWindow,
    Free,
    Move,
    StageTransition,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    power_of_two_buckets,
)
from repro.obs.tape import EventTape


class TestCounterGauge:
    def test_counter_monotone(self):
        counter = Counter("ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("level")
        gauge.set(3.0)
        gauge.set(-1.5)
        assert gauge.value == -1.5


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram("sizes", bounds=(1, 2, 4, 8))
        # Exactly on an edge lands in that bucket, one past it in the next.
        for value in (1, 2, 3, 4, 5, 8):
            hist.record(value)
        assert hist.counts == [1, 1, 2, 2]  # 1 | 2 | 3,4 | 5..8
        assert hist.overflow == 0
        hist.record(9)
        assert hist.overflow == 1

    def test_exact_stats_independent_of_buckets(self):
        hist = Histogram("h", bounds=(10,))
        for value in (1, 100, 3):
            hist.record(value)
        assert hist.count == 3
        assert hist.total == 104
        assert hist.min_value == 1
        assert hist.max_value == 100
        assert hist.mean == pytest.approx(104 / 3)

    def test_quantile_bucket_resolution(self):
        hist = Histogram("h", bounds=(1, 2, 4))
        for value in (1, 1, 2, 3):
            hist.record(value)
        assert hist.quantile(0.5) == 1.0   # 2nd of 4 observations
        assert hist.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_in_overflow_returns_max(self):
        hist = Histogram("h", bounds=(1,))
        hist.record(50)
        assert hist.quantile(1.0) == 50

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1, 1))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2, 1))

    def test_power_of_two_buckets(self):
        assert power_of_two_buckets(3) == (1, 2, 4, 8)
        with pytest.raises(ValueError):
            power_of_two_buckets(-1)


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_fails_loudly(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_as_dict_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h", (1, 2)).record(1)
        summary = registry.as_dict()
        assert summary["c"] == {"type": "counter", "value": 1}
        assert summary["g"] == {"type": "gauge", "value": 2.0}
        assert summary["h"]["type"] == "histogram"
        assert summary["h"]["counts"] == [1, 0]


class TestMetricsCollector:
    def test_standard_set_from_event_stream(self):
        registry = MetricsRegistry()
        tape = EventTape.from_events([
            Alloc(object_id=1, size=4, address=0, latency_ns=600),
            Alloc(object_id=2, size=8, address=4),
            Move(object_id=1, size=4, old_address=0, new_address=16),
            Free(object_id=1, size=4, address=16),
            CompactionWindow(request_size=8, moves=1, moved_words=4),
            StageTransition(program="p", stage="I", step=0),
            BudgetCharge(reason="alloc", words=4, remaining=2.0),
        ])
        MetricsCollector(registry, tape).fold()

        assert registry.counter("events.alloc").value == 2
        assert registry.counter("events.free").value == 1
        assert registry.counter("events.move").value == 1
        assert registry.counter("events.compaction_window").value == 1
        assert registry.counter("events.stage_transition").value == 1
        assert registry.counter("events.budget_charge").value == 1
        assert registry.histogram("alloc.size_words").count == 2
        # only latency-carrying allocs feed the latency histogram
        assert registry.histogram("alloc.latency_ns").count == 1
        assert registry.gauge("budget.remaining_words").value == 2.0
