"""Counter/gauge semantics and the metrics registry."""

import threading

import pytest

from repro.obs import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("msgs")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter("msgs")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)
        assert c.value == 0

    def test_concurrent_increments_are_not_lost(self):
        c = Counter("msgs")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_high_water_never_decreases(self):
        g = Gauge("depth")
        assert g.high_water == 0
        g.update_max(5)
        g.update_max(9)
        g.update_max(4)
        assert g.high_water == 9

    def test_snapshots_as_its_high_water_mark_only(self):
        reg = MetricsRegistry()
        reg.gauge("g").update_max(3)
        assert reg.snapshot() == {"g/hwm": 3}


class TestRegistry:
    def test_create_on_first_use_then_shared(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        b = reg.counter("x")
        assert a is b
        a.inc(3)
        assert reg.counter("x").value == 3

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("x")
        reg.gauge("y")
        with pytest.raises(ValueError, match="gauge"):
            reg.counter("y")

    def test_snapshot_flat_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b/msgs").inc(2)
        reg.gauge("a/depth").update_max(4)
        snap = reg.snapshot()
        assert snap == {"a/depth/hwm": 4, "b/msgs": 2}
        # Deterministic order: counters sorted by name, then gauges.
        assert list(snap) == ["b/msgs", "a/depth/hwm"]
