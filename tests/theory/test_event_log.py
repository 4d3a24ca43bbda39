"""One event log, read three ways: the observed order, the
happens-before order and the blocked/compute split are the same events
— so the theory layer reads either order, from any in-process engine
(process and socket engines: tests/dist/test_causal_engines.py)."""

import sys

import numpy as np
import pytest

from repro.errors import RuntimeModelError
from repro.explore.fixtures import build_target
from repro.runtime import (
    ENGINE_NAMES,
    CooperativeEngine,
    ProcessSpec,
    ReplayPolicy,
    RoundRobinPolicy,
    System,
    ThreadedEngine,
    make_engine,
)
from repro.runtime.schedulers import SchedulingPolicy
from repro.runtime.trace import Trace
from repro.theory import (
    HappensBefore,
    check_determinacy,
    foata_normal_form,
    state_digest,
)
from repro.theory.events import check_same_action_sequences


def pingpong(rounds=300):
    def body(ctx):
        for i in range(rounds):
            if ctx.rank == 0:
                ctx.send("ping", i)
                ctx.recv("pong")
            else:
                ctx.recv("ping")
                ctx.send("pong", i)

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("ping", 0, 1)
    system.add_channel("pong", 1, 0)
    return system


def e1_system():
    from repro.apps.fdtd import build_parallel_fdtd
    from repro.cli import _e1_problem

    return build_parallel_fdtd(pshape=(2, 1, 1), **_e1_problem()).to_parallel()


# ---------------------------------------------------------------------------
# The observed order is a linear extension of happens-before
# ---------------------------------------------------------------------------


def test_threaded_trace_never_observes_a_receive_before_its_send():
    """A send's index is drawn before its value enters the channel and
    a receive's after the value is in hand — under the most hostile
    thread switching the interpreter offers."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        traces = [
            ThreadedEngine(trace=True).run(pingpong()).trace for _ in range(40)
        ]
    finally:
        sys.setswitchinterval(interval)
    for trace in traces:
        pairs = trace.send_recv_pairs()
        assert len(pairs) == 600
        assert all(recv.index > send.index for send, recv in pairs)
        assert [e.index for e in trace] == list(range(len(trace)))
    hb = HappensBefore(traces[0])
    pos = {e: i for i, e in enumerate(traces[0])}
    for send, recv in traces[0].send_recv_pairs():
        assert hb.precedes(pos[send], pos[recv])


def test_happens_before_refuses_a_receive_recorded_before_its_send():
    trace = Trace()
    trace.record(1, "recv", "c", 0)
    trace.record(0, "send", "c", 0)
    with pytest.raises(RuntimeModelError, match="precedes its send"):
        HappensBefore(trace)
    # A send that is merely absent (ring overflow, a deadlock's partial
    # trace) is not an inversion: the receive just stays unmatched.
    partial = Trace()
    partial.record(1, "recv", "c", 0)
    partial.record(1, "send", "d", 0)
    assert HappensBefore(partial).precedes(0, 1)


# ---------------------------------------------------------------------------
# Theorem 1, read off the log: one Mazurkiewicz class across engines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def e1_runs():
    system = e1_system()
    return {
        "cooperative": CooperativeEngine(trace=True, observe=True).run(system),
        "threaded": ThreadedEngine(trace=True, observe=True).run(system),
    }


def test_trace_and_causal_are_one_class_holding_the_same_events(e1_runs):
    """The observed order and the clock order are two sorts of one
    trace's events."""
    for result in e1_runs.values():
        causal = result.trace.by_clock()
        assert type(result.trace) is type(causal) is Trace
        assert {id(e) for e in result.trace} == {id(e) for e in causal}
        assert result.trace.validate() == causal.validate() == []
        assert [e.index for e in result.trace] == list(range(len(result.trace)))
        assert result.report.trace is result.trace


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_trace_is_stamped_on_every_engine(name):
    """``trace=True`` alone stamps every send, so each receive's clock
    exceeds its send's and the depth is E1's longest causal chain."""
    engine = make_engine(name, trace=True)
    try:
        trace = engine.run(e1_system()).trace
    finally:
        getattr(engine, "close", lambda: None)()
    assert len(trace) == 152
    assert trace.validate() == []
    assert trace.depth == 109


def test_foata_form_is_one_across_engines_and_orders(e1_runs):
    reference = foata_normal_form(e1_runs["cooperative"].trace)
    assert reference.total_events == 152
    for result in e1_runs.values():
        assert foata_normal_form(result.trace.by_clock()) == reference
        assert foata_normal_form(result.trace) == reference


def test_same_action_sequences_across_engines_and_orders(e1_runs):
    assert check_same_action_sequences(
        e1_runs["threaded"].trace.by_clock(), e1_runs["cooperative"].trace
    )


def test_cooperative_engine_replays_a_threaded_causal_order(e1_runs):
    threaded = e1_runs["threaded"]
    causal = threaded.trace.by_clock().schedule()
    replayed = CooperativeEngine(ReplayPolicy(causal)).run(e1_system())
    assert replayed.schedule == causal
    assert state_digest(replayed) == state_digest(threaded)


def test_blocked_split_and_spans_are_readings_of_the_receive_events(e1_runs):
    for result in e1_runs.values():
        report, recvs = result.report, [
            e for e in result.trace if e.kind == "recv"
        ]
        for p in report.processes:
            mine = [e.t1 - e.t0 for e in recvs if e.rank == p.rank]
            assert p.blocked == pytest.approx(sum(mine))
        blocked = [s for s in report.spans if s.cat == "blocked"]
        assert sorted((s.rank, s.name, s.t0, s.t1) for s in blocked) == sorted(
            (e.rank, f"recv {e.channel}", e.t0, e.t1) for e in recvs
        )
        # Every exchange happens inside a stage span.
        assert all(s.depth >= 1 for s in blocked)


# ---------------------------------------------------------------------------
# state_digest: a bool is not an int
# ---------------------------------------------------------------------------


def digest_of(value):
    from repro.runtime.system import RunResult

    return state_digest(RunResult(stores=[{"x": value}], returns=[None]))


def test_state_digest_distinguishes_bool_from_int():
    assert digest_of(True) != digest_of(1)
    assert digest_of(False) != digest_of(0)
    assert digest_of(np.True_) == digest_of(True)
    assert digest_of(np.False_) == digest_of(False)


def test_no_compared_digest_holds_a_bool():
    """...so the fix above moves no digest the explorer or CI compares
    (CHANGES.md, PR 24, lists the parent's three)."""

    def bools(value):
        if isinstance(value, (bool, np.bool_)):
            yield value
        elif isinstance(value, dict):
            for v in value.values():
                yield from bools(v)
        elif isinstance(value, (list, tuple)):
            for v in value:
                yield from bools(v)

    for name in ("e1", "pipeline", "dc"):
        result = CooperativeEngine().run(build_target(name)())
        assert not list(bools([result.stores, result.returns])), name
    # Exact arithmetic on small integers: the one digest of the three
    # that no platform's libm can move.
    assert state_digest(
        CooperativeEngine().run(build_target("pipeline")())
    ) == "13d0315c9666db7f5729c976e3aab73be6aa82d93440d2e32cdf3f884fcf23d4"


# ---------------------------------------------------------------------------
# check_determinacy: a run that raised showed no schedule
# ---------------------------------------------------------------------------


class RaisingPolicy(SchedulingPolicy):
    def choose(self, enabled):
        raise RuntimeError("no schedule from me")


def test_schedules_seen_counts_only_runs_that_produced_a_schedule():
    report = check_determinacy(
        pingpong(rounds=2),
        policies=[RoundRobinPolicy(), RaisingPolicy(), RoundRobinPolicy()],
        threaded_runs=0,
    )
    assert report.runs == 3 and len(report.errors) == 1
    assert report.schedules_seen == 2
    assert report.distinct_schedules == 1
    assert "1/2 distinct schedules" in report.summary()
