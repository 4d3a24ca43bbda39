"""Causal tracing across the four engines.

Two properties, on every backend:

1. **Happens-before holds end-to-end** — the merged trace validates:
   every receive's Lamport clock strictly exceeds its matching send's,
   and the stamp each receiver recorded equals the sender's clock (the
   stamps really crossed pipe headers, shm descriptor metas and TCP
   frame headers intact).
2. **Tracing is a pure refinement** — running with ``trace=True``
   produces bitwise identical final state to the untraced run.

And one consequence of both being readings of one event log: a process
or socket run's ``trace`` is an ordinary
:class:`~repro.runtime.trace.Trace`, so :mod:`repro.theory` reads it —
Foata form, action sequences, replay — like a cooperative run's.
"""

import socket
import time

import numpy as np
import pytest

from repro.dist.net.daemon import WorkerDaemon
from repro.dist.net.frames import FrameStream
from repro.dist.net import rendezvous
from repro.dist import wire
from repro.runtime import (
    ENGINE_NAMES,
    CooperativeEngine,
    ProcessSpec,
    System,
    ThreadedEngine,
    make_engine,
)
from repro.util import bitwise_equal_arrays


def stencil_ring(nprocs=4, rounds=3):
    def body(ctx):
        import numpy as _np

        u = _np.arange(4.0) + ctx.rank
        for _ in range(rounds):
            ctx.send(f"r{ctx.rank}", u[-1])
            ghost = ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")
            u[0] = 0.5 * (u[0] + ghost)
        ctx.store["u"] = u

    system = System([ProcessSpec(r, body) for r in range(nprocs)])
    for r in range(nprocs):
        system.add_channel(f"r{r}", r, (r + 1) % nprocs)
    return system


ENGINES = [
    ("cooperative", lambda **kw: CooperativeEngine(**kw)),
    ("threaded", lambda **kw: ThreadedEngine(**kw)),
    (
        "multiprocess/fork",
        lambda **kw: make_engine("multiprocess", start_method="fork", **kw),
    ),
    ("socket/loopback", lambda **kw: make_engine("socket", **kw)),
]


@pytest.mark.parametrize("label,make", ENGINES, ids=[e[0] for e in ENGINES])
def test_recv_clock_strictly_exceeds_send_clock(label, make):
    engine = make(trace=True)
    try:
        result = engine.run(stencil_ring())
    finally:
        getattr(engine, "close", lambda: None)()
    causal = result.trace.by_clock()
    assert causal.validate() == [], label
    pairs = causal.send_recv_pairs()
    # 4 ranks x 3 rounds: every send matched by its receive.
    assert len(pairs) == 12, label
    for send, recv in pairs:
        assert recv.clock > send.clock, label
        assert recv.sent_clock == send.clock, label
    # The merged order is a linear extension: per rank, clocks increase.
    by_rank = {}
    for e in causal.events:
        assert e.clock > by_rank.get(e.rank, 0), label
        by_rank[e.rank] = e.clock


@pytest.mark.parametrize("label,make", ENGINES, ids=[e[0] for e in ENGINES])
def test_tracing_off_and_on_bitwise_identical(label, make):
    untraced_engine = make()
    try:
        untraced = untraced_engine.run(stencil_ring())
    finally:
        getattr(untraced_engine, "close", lambda: None)()
    traced_engine = make(trace=True)
    try:
        traced = traced_engine.run(stencil_ring())
    finally:
        getattr(traced_engine, "close", lambda: None)()
    for a, b in zip(untraced.stores, traced.stores):
        assert set(a) == set(b)
        assert bitwise_equal_arrays(a["u"], b["u"]), label
    assert untraced.channel_stats == traced.channel_stats, label


@pytest.mark.slow
@pytest.mark.parametrize("label,make", ENGINES, ids=[e[0] for e in ENGINES])
def test_fdtd_ghost_exchange_traces_and_stays_bitwise(label, make):
    from repro.apps.fdtd import (
        COMPONENTS,
        FDTDConfig,
        GaussianPulse,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )

    shape = (9, 7, 7)
    config = FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=3,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=10, spread=3),
            )
        ],
    )
    par = build_parallel_fdtd(config, (2, 1, 1), version="A")

    def host_fields(result):
        host = result.stores[par.host]
        return {c: np.asarray(host[c]) for c in COMPONENTS}

    reference = host_fields(ThreadedEngine().run(par.to_parallel()))
    engine = make(trace=True)
    try:
        result = engine.run(par.to_parallel())
    finally:
        getattr(engine, "close", lambda: None)()
    fields = host_fields(result)
    for c in COMPONENTS:
        assert bitwise_equal_arrays(fields[c], reference[c]), (label, c)
    causal = result.trace
    assert causal.validate() == [], label
    pairs = causal.send_recv_pairs()
    assert pairs, label
    # Ghost exchanges cross rank boundaries: some matched edge connects
    # two different ranks on every decomposition with nprocs > 1.
    assert any(send.rank != recv.rank for send, recv in pairs), label


@pytest.mark.slow
def test_chrome_trace_has_flow_events_for_every_matched_pair():
    from repro.obs.export import chrome_trace_dict

    engine = make_engine(
        "multiprocess", start_method="fork", observe=True, trace=True
    )
    try:
        result = engine.run(stencil_ring())
    finally:
        engine.close()
    report = result.report
    assert report is not None and report.trace is result.trace
    trace = chrome_trace_dict(report)
    starts = [
        e
        for e in trace["traceEvents"]
        if e.get("cat") == "causal" and e["ph"] == "s"
    ]
    assert len(starts) == len(report.trace.send_recv_pairs()) == 12


# ---------------------------------------------------------------------------
# The theory layer reads every engine's trace
# ---------------------------------------------------------------------------


def e1_system():
    from repro.apps.fdtd import build_parallel_fdtd
    from repro.cli import _e1_problem

    return build_parallel_fdtd(pshape=(2, 1, 1), **_e1_problem()).to_parallel()


def run_once(name, system, **kwargs):
    engine = make_engine(name, **kwargs)
    try:
        return engine.run(system)
    finally:
        getattr(engine, "close", lambda: None)()


def test_e1_is_one_mazurkiewicz_class_on_all_four_engines():
    """Theorem 1 made visible: whatever engine ran it and whichever
    order its events were merged in, E1 has one Foata normal form and
    one action sequence per process."""
    from repro.theory import foata_normal_form
    from repro.theory.events import check_same_action_sequences

    system = e1_system()
    observed = CooperativeEngine(trace=True).run(system).trace
    reference = foata_normal_form(observed)
    assert reference.total_events == 152
    for name in ENGINE_NAMES:
        causal = run_once(name, system, trace=True).trace.by_clock()
        assert type(causal) is type(observed), name
        assert foata_normal_form(causal) == reference, name
        assert check_same_action_sequences(causal, observed), name
        if name in ("multiprocess", "socket"):
            assert {e.index for e in causal} == {-1}, name


def test_e1_spans_read_the_same_on_all_four_engines():
    """Spans are rows of each rank's event log, read at the one run
    tail: the same stages, exchanges and receives, at the same depths,
    whatever engine ran the ranks."""
    from collections import Counter

    system = e1_system()
    shapes = {}
    for name in ENGINE_NAMES:
        spans = run_once(name, system, observe=True).report.spans
        shapes[name] = Counter((s.rank, s.name, s.cat, s.depth) for s in spans)
        outer = [s for s in spans if s.cat in ("stage", "exchange")]
        for s in (s for s in spans if s.cat == "blocked"):
            assert s.depth >= 1, (name, s)
            assert any(
                o.rank == s.rank and o.t0 <= s.t0 and s.t1 <= o.t1
                for o in outer
            ), (name, s)
    reference = shapes["cooperative"]
    assert sum(reference.values()) == 350
    for name, shape in shapes.items():
        assert shape == reference, name


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_cooperative_engine_replays_a_pooled_multiprocess_causal_order(name):
    """Record once, replay anywhere: any engine's traced ``schedule``
    replays on the cooperative engine to bitwise the same stores."""
    from repro.runtime import ReplayPolicy
    from repro.theory import state_digest

    system = e1_system()
    recorded = run_once(name, system, trace=True)
    replayed = CooperativeEngine(ReplayPolicy(recorded.schedule)).run(system)
    assert len(recorded.schedule) == 152
    assert replayed.schedule == recorded.schedule
    # Equal digests: bitwise-equal stores and returns.
    assert state_digest(replayed) == state_digest(recorded)


@pytest.mark.parametrize("name", ["multiprocess", "socket"])
def test_blocked_split_is_a_reading_of_the_receive_events(name):
    """Events cross the result pipe once; the report's blocked column
    and its "blocked" spans are made from them at the run tail."""
    result = run_once(name, stencil_ring(), observe=True, trace=True)
    report = result.report
    recvs = [e for e in result.trace if e.kind == "recv"]
    assert len(recvs) == 12
    for p in report.processes:
        mine = [e.t1 - e.t0 for e in recvs if e.rank == p.rank]
        assert p.blocked == pytest.approx(sum(mine))
    blocked = [s for s in report.spans if s.cat == "blocked"]
    assert sorted((s.rank, s.name, s.t0, s.t1) for s in blocked) == sorted(
        (e.rank, f"recv {e.channel}", e.t0, e.t1) for e in recvs
    )
    # Observed alone, the same log is kept, and no stamp rides.
    plain = run_once(name, stencil_ring(), observe=True)
    assert plain.trace is None and plain.report.trace is None
    assert len([s for s in plain.report.spans if s.cat == "blocked"]) == 12


# ---------------------------------------------------------------------------
# Daemon telemetry counters
# ---------------------------------------------------------------------------


def _await_counter(daemon, key, value, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if daemon.stats()[key] >= value:
            return True
        time.sleep(0.01)
    return False


def test_daemon_counts_hellos_and_shutdowns():
    daemon = WorkerDaemon()
    addr = daemon.start()
    try:
        fresh = daemon.stats()
        for key in (
            "control_conns",
            "data_conns",
            "stats_conns",
            "jobs_run",
            "rendezvous_failures",
            "shutdown_requests",
            "refused_conns",
            "bad_hellos",
            "ranks_active",
        ):
            assert fresh[key] == 0, key
        assert fresh["draining"] is False
        assert fresh["pid"] > 0 and fresh["uptime_s"] >= 0.0
        # A malformed hello is counted and dropped.
        sock = socket.create_connection(addr, timeout=5.0)
        stream = FrameStream(sock)
        wire.send(stream, ("nonsense",))
        assert _await_counter(daemon, "bad_hellos", 1)
        stream.close()
        # A data hello parks the connection with the broker.
        data = rendezvous.dial_channel(addr, "job-x", "c0", timeout=5.0)
        assert _await_counter(daemon, "data_conns", 1)
        data.close()
    finally:
        rendezvous.request_shutdown(addr)
        assert _await_counter(daemon, "shutdown_requests", 1)
        daemon.stop()
    stats = daemon.stats()
    assert stats["bad_hellos"] == 1
    assert stats["data_conns"] == 1
    assert stats["jobs_run"] == 0


def test_socket_engine_run_counts_jobs_on_in_process_daemon():
    daemon = WorkerDaemon()
    addr = daemon.start()
    try:
        engine = make_engine("socket", hosts=f"{addr[0]}:{addr[1]}")
        try:
            result = engine.run(stencil_ring(nprocs=2, rounds=2))
        finally:
            engine.close()
        assert "u" in result.stores[0]
        stats = daemon.stats()
        assert stats["jobs_run"] == 2  # one per rank
        assert stats["control_conns"] == 2
        assert stats["data_conns"] >= 1
        assert stats["rendezvous_failures"] == 0
    finally:
        daemon.stop()
