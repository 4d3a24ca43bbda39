"""Spans and lifetimes as rows of a rank's event log, and the
observer's run-wide accounting.

A patched clock makes every duration deterministic.
"""

from repro.obs import Observer
from repro.obs.report import Span, blocked_spans, merge_worker_observations
from repro.runtime import ProcessSpec, System, ThreadedEngine
from repro.runtime.trace import EventLog, Trace


class FakeClock:
    """Each call advances the clock by one second."""

    def __init__(self):
        self.t = 0.0
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        self.t += 1.0
        return self.t


def fake_clock(monkeypatch) -> FakeClock:
    clock = FakeClock()
    monkeypatch.setattr("repro.runtime.trace.perf_counter", clock)
    return clock


def report_of(log: EventLog, epoch: float = 0.0):
    """The report a run tail makes of one rank's log."""
    return merge_worker_observations(
        "test", 1, {0: {"epoch": epoch, "streams": {}, "metrics": {}}}, [],
        {log.rank: log.payload()},
    )


class TestEventLogSpans:
    def test_span_duration_from_clock(self, monkeypatch):
        fake_clock(monkeypatch)
        log = EventLog(0)
        with log.span("phase-a", "phase", {"k": 1}):
            pass
        (s,) = report_of(log).spans
        assert (s.name, s.cat, s.rank) == ("phase-a", "phase", 0)
        assert s.duration == 1.0
        assert s.depth == 0
        assert s.args == {"k": 1}

    def test_nesting_depth(self, monkeypatch):
        fake_clock(monkeypatch)
        log = EventLog(0)
        with log.span("outer", "stage", {}):
            with log.span("inner", "collective", {}):
                with log.span("innermost", "collective", {}):
                    pass
        depths = {s.name: s.depth for s in report_of(log).spans}
        assert depths == {"outer": 0, "inner": 1, "innermost": 2}

    def test_depth_restored_after_exit(self, monkeypatch):
        fake_clock(monkeypatch)
        log = EventLog(0)
        with log.span("first", "phase", {}):
            pass
        try:
            with log.span("raises", "phase", {}):
                raise ValueError
        except ValueError:
            pass
        with log.span("second", "phase", {}):
            pass
        assert log.depth == 0
        assert [row[4] for row in log.spans] == [0, 0, 0]
        assert [row[0] for row in log.spans] == ["first", "raises", "second"]

    def test_report_spans_sorted_by_start(self, monkeypatch):
        fake_clock(monkeypatch)
        log = EventLog(0)
        with log.span("outer", "stage", {}):  # opens first, ends last
            with log.span("inner", "stage", {}):
                pass
        assert [row[0] for row in log.spans] == ["inner", "outer"]
        assert [s.name for s in report_of(log).spans] == ["outer", "inner"]

    def test_span_rows_ride_in_the_payload(self, monkeypatch):
        # What a worker ships home over its result pipe.
        fake_clock(monkeypatch)
        log = EventLog(3)
        with log.lifetime("P3"):
            with log.span("E-phase[0]", "stage", {}):
                pass
        payload = log.payload()
        assert payload["spans"] == [("E-phase[0]", "stage", 2.0, 3.0, 0, {})]
        assert payload["process"] == ("P3", 1.0, 4.0)

    def test_unobserved_run_records_nothing(self, monkeypatch):
        def body(ctx):
            with ctx.span("work", cat="stage"):
                with ctx.span("nested"):
                    pass
            ctx.store["spanned"] = True

        system = System([ProcessSpec(r, body) for r in range(2)])
        clock = fake_clock(monkeypatch)
        bare = ThreadedEngine().run(system)
        assert clock.calls == 0  # no log, and no clock read
        assert bare.report is None
        assert all(store["spanned"] for store in bare.stores)
        # Traced but not observed: the log exists, spans stay out of it.
        traced = ThreadedEngine(trace=True).run(system)
        assert traced.report is None and clock.calls == 0
        observed = ThreadedEngine(observe=True).run(system)
        shape = sorted((s.rank, s.name, s.depth) for s in observed.report.spans)
        assert shape == [(0, "nested", 1), (0, "work", 0),
                         (1, "nested", 1), (1, "work", 0)]


class TestObserver:
    def test_process_wall_and_blocked_split(self, monkeypatch):
        fake_clock(monkeypatch)
        log = EventLog(0)
        with log.lifetime("P0"):  # start at t=1
            log.record("recv", "c", 0, t0=0.5)  # done at t=2
        # finish at t=3
        (p,) = report_of(log).processes
        assert p.name == "P0"
        assert p.wall == 2.0
        assert p.blocked == 1.5
        assert p.compute == 0.5

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
        obs = Observer()
        obs.message(0, 1, 7, 100)
        obs.message(0, 1, 7, 50)
        obs.message(1, 0, 7, 10)
        assert obs.stream_stats() == {(0, 1, 7): (2, 150), (1, 0, 7): (1, 10)}
