"""Causal-tracing unit tests: Lamport clocks, the per-rank event-log
ring, the happens-before merge, validation, rendering, serialisation,
and the Chrome exporter's lane assignment + flow events."""

import json

from repro.obs.export import chrome_trace_dict
from repro.obs.report import ProcessTimes, RunReport, Span
from repro.runtime.trace import Event, EventLog, Trace


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


def test_lamport_tick_is_strictly_increasing():
    log = EventLog(0, stamps=True)
    seen = [log.record("step") for _ in range(5)]
    assert seen == [1, 2, 3, 4, 5]


def test_lamport_merge_strictly_exceeds_both_operands():
    log = EventLog(0, stamps=True)
    for _ in range(3):
        log.record("step")
    assert log.record("recv", "c", 0, sent_clock=10) == 11  # message ahead
    assert log.record("recv", "c", 1, sent_clock=2) == 12  # message behind
    assert log.clock == 12


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


def events_of(log):
    return Trace.merge({log.rank: log.payload()}, 1, epoch=0.0).events


def test_recorder_records_sends_recvs_steps():
    rec = EventLog(rank=0, stamps=True)
    stamp = rec.record("send", "c0", 0)
    assert stamp == 1
    rec.record("step", label="compute")
    got = rec.record("recv", "c1", 0, sent_clock=7)
    assert got == 8  # max(2, 7) + 1
    events = events_of(rec)
    kinds = [e.kind for e in events]
    assert kinds == ["send", "step", "recv"]
    recv = events[-1]
    assert recv.sent_clock == 7 and recv.clock == 8


def test_stamp_rides_only_when_asked():
    assert EventLog(rank=0).record("send", "c0", 0) is None


def test_recorder_ring_drops_oldest(monkeypatch):
    monkeypatch.setattr("repro.runtime.trace.RING_CAPACITY", 3)
    rec = EventLog(rank=0)
    for i in range(5):
        rec.record("send", "c", i)
    events = events_of(rec)
    assert len(events) == 3
    assert rec.dropped == 2
    # Newest events survive, and keep their place in the rank's sequence.
    assert [e.seq for e in events] == [2, 3, 4]
    assert [e.local_index for e in events] == [2, 3, 4]


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


def two_rank_payloads():
    """Rank 0 sends c0#0; rank 1 receives it then sends c1#0 back."""
    r0 = EventLog(0, stamps=True)
    r1 = EventLog(1, stamps=True)
    stamp = r0.record("send", "c0", 0)
    r1.record("recv", "c0", 0, sent_clock=stamp)
    back = r1.record("send", "c1", 0)
    r0.record("recv", "c1", 0, sent_clock=back)
    return {0: r0.payload(), 1: r1.payload()}


def test_merge_produces_validated_happens_before_order():
    trace = Trace.merge(two_rank_payloads(), nprocs=2, engine="test")
    assert trace.validate() == []
    pairs = trace.send_recv_pairs()
    assert len(pairs) == 2
    for send, recv in pairs:
        assert recv.clock > send.clock
        assert recv.sent_clock == send.clock
    assert trace.depth == 4  # send -> recv -> send -> recv chain


def test_merge_order_independent_of_payload_arrival_order():
    payloads = two_rank_payloads()
    shuffled = dict(sorted(payloads.items(), reverse=True))
    a = Trace.merge(payloads, nprocs=2, epoch=0.0)
    b = Trace.merge(shuffled, nprocs=2, epoch=0.0)
    assert a.events == b.events


def test_merge_shifts_wall_timestamps_to_run_start():
    trace = Trace.merge(two_rank_payloads(), nprocs=2)
    assert min(e.t for e in trace.events) == 0.0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_flags_missing_send_stale_clock_and_bad_stamp():
    events = [
        Event(0, "send", "c0", 0, clock=5),
        # Clock does not exceed the send's.
        Event(1, "recv", "c0", 0, clock=5, sent_clock=5),
        # No matching send at all.
        Event(1, "recv", "ghost", 3, clock=9, sent_clock=8),
        # Carried stamp disagrees with the sender's record.
        Event(1, "recv", "c0", 0, clock=11, sent_clock=4),
    ]
    trace = Trace(events, nprocs=2)
    violations = trace.validate()
    assert len(violations) == 3
    assert any("no" in v and "matching send" in v for v in violations)
    assert any("does not exceed" in v for v in violations)
    assert any("carried stamp" in v for v in violations)


# ---------------------------------------------------------------------------
# Rendering and serialisation
# ---------------------------------------------------------------------------


def test_render_one_column_per_rank_with_limit():
    trace = Trace.merge(two_rank_payloads(), nprocs=2)
    text = trace.render_columns()
    assert "P0" in text and "P1" in text
    assert "send(c0#0)" in text and "recv(c1#0)" in text
    short = trace.render_columns(limit=2)
    assert "... and 2 more event(s)" in short


def test_trace_dict_round_trip():
    trace = Trace.merge(two_rank_payloads(), nprocs=2, engine="threaded")
    data = json.loads(json.dumps(trace.to_dict()))
    assert data["violations"] == []
    back = Trace.from_dict(data)
    assert back.events == trace.events
    assert back.nprocs == trace.nprocs and back.engine == trace.engine


def test_report_jsonl_events_round_trip_the_causal_trace():
    causal = Trace.merge(two_rank_payloads(), nprocs=2, engine="e")
    report = RunReport(engine="e", nprocs=2, trace=causal)
    events = json.loads(json.dumps(report.to_events()))
    back = RunReport.from_events(events)
    assert back.trace is not None
    assert back.trace.events == causal.events


# ---------------------------------------------------------------------------
# Chrome exporter: lanes and flow events
# ---------------------------------------------------------------------------


def spans_report(proc_ranks, span_ranks):
    report = RunReport(engine="test", nprocs=len(proc_ranks))
    for r in proc_ranks:
        report.processes.append(ProcessTimes(r, f"P{r}", 1.0, 0.0))
    for i, r in enumerate(span_ranks):
        report.spans.append(Span("work", "phase", r, i * 0.1, i * 0.1 + 0.05))
    return report


def test_chrome_lanes_are_unique_and_stably_sorted():
    # Ranks deliberately unsorted and sparse (as local rank ids of
    # several hosts can be).
    report = spans_report([7, 0, 3], [0, 3, 7, 7])
    trace = chrome_trace_dict(report)
    x_lanes = {
        (e["pid"], e["tid"]) for e in trace["traceEvents"] if e["ph"] == "X"
    }
    assert x_lanes == {(0, 0), (0, 1), (0, 2)}  # one lane per rank
    sort_meta = [
        e for e in trace["traceEvents"] if e["name"] == "thread_sort_index"
    ]
    assert len(sort_meta) == 3
    # One trace process; dense tids in rank order.
    assert {e["pid"] for e in trace["traceEvents"]} == {0}
    names = {
        e["tid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["name"] == "thread_name"
    }
    assert names == {0: "P0", 1: "P3", 2: "P7"}


def test_chrome_flow_events_cover_every_send_recv_pair():
    report = spans_report([0, 1], [0, 1])
    report.trace = Trace.merge(two_rank_payloads(), nprocs=2)
    trace = chrome_trace_dict(report)
    starts = [
        e
        for e in trace["traceEvents"]
        if e.get("cat") == "causal" and e["ph"] == "s"
    ]
    ends = [
        e
        for e in trace["traceEvents"]
        if e.get("cat") == "causal" and e["ph"] == "f"
    ]
    assert len(starts) == len(report.trace.send_recv_pairs()) == 2
    assert {e["id"] for e in starts} == {e["id"] for e in ends}
    assert all(e.get("bp") == "e" for e in ends)
    # Arrow endpoints sit on the sender's and receiver's lanes.
    by_id = {e["id"]: e for e in starts}
    for end in ends:
        assert end["tid"] != by_id[end["id"]]["tid"]
