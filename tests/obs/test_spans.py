"""Span recording, nesting depth, and observer accounting.

A fake monotonically advancing clock makes every duration deterministic.
"""

from repro.obs import NULL_OBSERVER, NullObserver, Observer, observer_of
from repro.obs.report import blocked_spans, worker_observation
from repro.obs.spans import Span, SpanRecorder
from repro.runtime.trace import EventLog, Trace


class FakeClock:
    """Each call advances the clock by one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestSpanRecorder:
    def test_span_duration_from_clock(self):
        rec = SpanRecorder(FakeClock())
        with rec.span(0, "phase-a"):
            pass
        (s,) = rec.spans
        assert s.name == "phase-a"
        assert s.duration == 1.0
        assert s.depth == 0

    def test_nesting_depth_per_rank(self):
        rec = SpanRecorder(FakeClock())
        with rec.span(0, "outer"):
            with rec.span(0, "inner"):
                pass
            with rec.span(1, "other-rank"):
                pass
        by_name = {s.name: s for s in rec.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # Depth is tracked per rank, not globally.
        assert by_name["other-rank"].depth == 0

    def test_depth_restored_after_exit(self):
        rec = SpanRecorder(FakeClock())
        with rec.span(0, "first"):
            pass
        with rec.span(0, "second"):
            pass
        assert all(s.depth == 0 for s in rec.spans)

    def test_spans_sorted_by_start(self):
        rec = SpanRecorder(FakeClock())
        rec.record(Span("late", "phase", 0, 10.0, 11.0))
        rec.record(Span("early", "phase", 0, 1.0, 2.0))
        assert [s.name for s in rec.spans] == ["early", "late"]

    def test_shifted(self):
        s = Span("a", "phase", 0, 10.0, 12.0, depth=1, args={"k": 1})
        moved = s.shifted(10.0)
        assert (moved.t0, moved.t1) == (0.0, 2.0)
        assert moved.duration == s.duration
        assert moved.depth == 1 and moved.args == {"k": 1}


class TestObserver:
    def test_process_wall_and_blocked_split(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.trace.perf_counter", lambda: 8.0)
        obs = Observer(clock=FakeClock())
        log = EventLog(0)
        obs.process_started(0)  # start at t=2 (epoch consumed t=1)
        log.record("recv", "c", 0, t0=5.0)
        obs.process_finished(0)  # finish at t=3
        (name, wall, blocked) = worker_observation(obs, [log])["procs"][0]
        assert name == "P0"
        assert wall == 1.0
        assert blocked == 3.0

    def test_blocked_recv_recorded_as_span(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.trace.perf_counter", lambda: 8.0)
        log = EventLog(0)
        log.record("send", "pong", 0)
        log.record("recv", "ping", 0, t0=5.0)
        trace = Trace.merge({0: log.payload()}, 1, epoch=0.0)
        outer = Span("stage", "phase", 0, 4.0, 9.0)
        (s,) = blocked_spans(trace, [outer])
        assert s.cat == "blocked"
        assert s.name == "recv ping"
        assert s.duration == 3.0
        assert s.depth == 1

    def test_stream_accumulation(self):
        obs = Observer(clock=FakeClock())
        obs.message(0, 1, 7, 100)
        obs.message(0, 1, 7, 50)
        obs.message(1, 0, 7, 10)
        assert obs.stream_stats() == {(0, 1, 7): (2, 150), (1, 0, 7): (1, 10)}


class TestNullObserver:
    def test_records_nothing(self):
        obs = NullObserver()
        obs.process_started(0)
        obs.message(0, 1, 0, 64)
        with obs.span(0, "anything"):
            pass
        assert obs.process_times() == {}
        assert obs.stream_stats() == {}
        assert len(obs.spans) == 0
        assert not obs.enabled

    def test_span_is_shared_noop(self):
        assert NULL_OBSERVER.span(0, "a") is NULL_OBSERVER.span(1, "b")

    def test_observer_of(self):
        class Ctx:
            observer = None

        assert observer_of(Ctx()) is NULL_OBSERVER
        real = Observer()
        ctx = Ctx()
        ctx.observer = real
        assert observer_of(ctx) is real
        assert observer_of(object()) is NULL_OBSERVER
