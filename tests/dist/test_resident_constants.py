"""Daemon-resident constants — counted, not timed.

A rank's constants (read-only store arrays) cross TCP the first time a
worker daemon sees their token and never come back; the daemon's own
table is the only record of what it holds, so a restarted, evicting or
newly placed daemon simply asks (``need`` / ``constants``).  These tests
read the daemons' ``constant_*`` counters and the coordinator's control
stream byte counters; the only clocks bound "did not hang".
"""

import contextlib
import gc
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    FDTDConfig,
    GaussianBallInitial,
    VersionA,
    YeeGrid,
    build_parallel_fdtd,
)
from repro.dist import closures, wire
from repro.dist import worker as worker_module
from repro.dist.engine import WorkerCrashError
from repro.dist.fleet import FleetScheduler
from repro.dist.net.daemon import WorkerDaemon, daemon_process_main
from repro.dist.net.engine import constant_sets, fresh_job_id, run_assigned
from repro.dist.net.frames import FrameStream
from repro.dist.net.rendezvous import dial_control, poll_stats
from repro.dist.worker import ResidentConstants
from repro.errors import ProcessFailedError, TransportError
from repro.runtime import ProcessSpec, System, make_engine
from repro.util import bitwise_equal_arrays, is_constant

#: Everything on a control stream that is not array bytes — hello, job
#: header, barrier, the done frame's returns and channel statistics —
#: stays far below this per rank (measured: ~0.6 KB).
SLACK_PER_RANK = 4096


def version_a(n=9, steps=2):
    config = FDTDConfig(
        grid=YeeGrid(shape=(n, n, n)),
        steps=steps,
        initial=[GaussianBallInitial("ez", (n // 2,) * 3, radius=2.0)],
    )
    return config, build_parallel_fdtd(config, (2, 1, 1), version="A")


def array_nbytes(system, constant):
    return sum(
        value.nbytes
        for spec in system.processes
        for value in spec.store.values()
        if isinstance(value, np.ndarray) and is_constant(value) == constant
    )


def assert_matches_sequential(config, par, result):
    reference = VersionA(config).run().fields.components()
    fields = par.host_fields(result.stores)
    for comp in COMPONENTS:
        assert bitwise_equal_arrays(fields[comp], reference[comp]), comp


def assert_constants_are_the_systems_own(system, result):
    for rank, spec in enumerate(system.processes):
        for key, value in spec.store.items():
            if is_constant(value):
                assert result.stores[rank][key] is value
            elif isinstance(value, np.ndarray):
                assert result.stores[rank][key] is not value


@contextlib.contextmanager
def thread_daemons(n=2, **options):
    """``n`` daemons inside this process (their counters one attribute
    away) and a socket engine pointed at them."""
    daemons = [WorkerDaemon() for _ in range(n)]
    engine = None
    try:
        engine = make_engine(
            "socket", hosts=[d.start() for d in daemons], **options
        )
        yield daemons, engine
    finally:
        if engine is not None:
            engine.close()
        for daemon in daemons:
            daemon.stop()


def counted(daemons, key):
    return sum(d.stats()[key] for d in daemons)


def wait_idle(daemon, timeout=10.0):
    deadline = time.monotonic() + timeout
    while daemon.stats()["ranks_active"]:
        assert time.monotonic() < deadline, "a rank thread is still there"
        time.sleep(0.01)


def poking_system(n=64):
    """Two ranks, one constant ``c`` each; rank 1 does what its ``poke``
    says: 1 assigns into the constant, 2 rebinds the key."""
    const = np.arange(float(n))
    const.flags.writeable = False

    def body(ctx):
        other = 1 - ctx.rank
        ctx.send(f"c{ctx.rank}", ctx.store["v"] + ctx.store["c"])
        if ctx.store["poke"] == 1:
            ctx.store["c"][0] = -1.0
        elif ctx.store["poke"] == 2:
            ctx.store["c"] = ctx.store["c"] * 2.0
        ctx.store["v"] = ctx.recv(f"c{other}")
        return float(ctx.store["v"].sum())

    system = System(
        [
            ProcessSpec(
                r, body, store={"c": const, "v": np.full(n, float(r)), "poke": 0}
            )
            for r in range(2)
        ]
    )
    system.add_channel("c0", 0, 1)
    system.add_channel("c1", 1, 0)
    total = float(np.arange(n).sum())
    return system, const, [total + n, total]


# ---------------------------------------------------------------------------
# (a) constants cross once, and never come back
# ---------------------------------------------------------------------------


def test_constants_cross_once_per_daemon_and_never_come_back():
    config, par = version_a()
    system = par.to_parallel()
    constant_bytes = array_nbytes(system, constant=True)
    variable_bytes = array_nbytes(system, constant=False)
    slack = SLACK_PER_RANK * system.nprocs
    assert constant_bytes > 2 * slack  # or the bounds below say nothing

    with thread_daemons(2) as (daemons, engine):
        first = engine.run(system)
        t1 = dict(engine.last_timing)
        assert counted(daemons, "constant_misses") == system.nprocs
        assert counted(daemons, "constant_hits") == 0
        assert counted(daemons, "constant_bytes_resident") == constant_bytes

        second = engine.run(system)
        t2 = dict(engine.last_timing)
        assert counted(daemons, "constant_misses") == system.nprocs  # +0
        assert counted(daemons, "constant_hits") == system.nprocs
        assert counted(daemons, "constants_resident") == system.nprocs
        assert counted(daemons, "constant_evictions") == 0

    # Out: the miss run carried the constants, the hit run did not.
    assert t1["control_bytes_out"] - t2["control_bytes_out"] >= constant_bytes
    assert t2["control_bytes_out"] < variable_bytes + slack + sum(
        len(image) for image in closures.body_images(system)
    )
    # Back: variables only, on the miss run too.
    for timing in (t1, t2):
        assert variable_bytes <= timing["control_bytes_in"]
        assert timing["control_bytes_in"] < variable_bytes + slack

    for result in (first, second):
        assert_matches_sequential(config, par, result)
        assert_constants_are_the_systems_own(system, result)


def test_the_observed_report_carries_the_control_stream_total():
    system, _const, returns = poking_system()
    with thread_daemons(1, observe=True) as (_daemons, engine):
        result = engine.run(system)
        timing = engine.last_timing
    assert result.returns == returns
    assert result.report.metrics["wire/net_control_bytes"] == (
        timing["control_bytes_out"] + timing["control_bytes_in"]
    )


def test_frame_stream_counts_bytes_both_ways():
    a, b = socket.socketpair()
    left, right = FrameStream(a), FrameStream(b)
    try:
        payload = np.arange(5000.0)  # above the direct-receive threshold
        wire.send(left, {"x": payload, "k": 3})
        got = wire.recv(right)
        assert bitwise_equal_arrays(got["x"], payload)
        assert left.bytes_sent == right.bytes_received
        assert left.bytes_sent > payload.nbytes
        assert left.bytes_sent < payload.nbytes + 512
        left.send_goodbye()
        with pytest.raises(EOFError):
            right.recv_bytes()
        assert left.bytes_sent == right.bytes_received
        assert right.bytes_sent == left.bytes_received == 0
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# The token: minted once per System, revalidated by identity
# ---------------------------------------------------------------------------


def test_tokens_are_minted_once_and_follow_the_arrays_not_the_bytes():
    system, const, _ = poking_system()
    first = constant_sets(system)
    assert [set(held) for _token, held in first] == [{"c"}, {"c"}]
    assert first[0][0] != first[1][0]  # per rank, though the array is one
    again = constant_sets(system)
    assert [t for t, _ in again] == [t for t, _ in first]

    twin = const.copy()  # equal bytes, another object: another token
    twin.flags.writeable = False
    system.processes[1].store["c"] = twin
    rebound = constant_sets(system)
    assert rebound[0][0] == first[0][0]
    assert rebound[1][0] != first[1][0]
    assert rebound[1][1]["c"] is twin

    system.processes[0].store["c"] = np.zeros(3)  # writable: no constant
    assert constant_sets(system)[0] == (None, {})

    other, _, _ = poking_system()
    assert constant_sets(other)[0][0] != first[0][0]


def test_a_dropped_system_drops_its_tokens():
    from repro.dist.net import engine as net_engine

    system, _const, _ = poking_system()
    constant_sets(system)
    before = len(net_engine._constant_sets)
    del system
    gc.collect()
    assert len(net_engine._constant_sets) == before - 1


# ---------------------------------------------------------------------------
# The table: shared, bounded by bytes, least recently used first
# ---------------------------------------------------------------------------


def test_resident_constants_are_bounded_by_bytes_lru(monkeypatch):
    monkeypatch.setattr(worker_module, "MAX_RESIDENT_CONSTANT_BYTES", 2500)
    table = ResidentConstants()

    def fresh():
        return {"a": np.zeros(100), "b": np.zeros(25)}  # 1000 bytes

    assert table.get(b"1") is None
    one = table.put(b"1", fresh())
    assert not one["a"].flags.writeable and not one["b"].flags.writeable
    assert table.put(b"1", fresh()) is one  # first in stays: one copy
    two = table.put(b"2", fresh())
    assert table.get(b"1") is one  # ... which makes b"2" the oldest
    table.put(b"3", fresh())
    assert table.get(b"2") is None and table.get(b"1") is one
    assert two["a"].shape == (100,)  # an evicted set a rank holds stays whole
    assert table.stats() == {
        "constants_resident": 2,
        "constant_bytes_resident": 2000,
        "constant_hits": 2,
        "constant_misses": 2,
        "constant_evictions": 1,
    }
    big = table.put(b"4", {"a": np.zeros(1000)})  # alone above the bound
    assert big["a"].nbytes == 8000
    assert table.stats()["constants_resident"] == 0
    assert table.stats()["constant_bytes_resident"] == 0


# ---------------------------------------------------------------------------
# (b) the daemon's answer is the only authority
# ---------------------------------------------------------------------------


def spawn_daemon(port=0):
    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=daemon_process_main,
        args=("127.0.0.1", port, send_end),
        daemon=True,
    )
    proc.start()
    send_end.close()
    try:
        assert recv_end.poll(30.0), "daemon never reported its address"
        return tuple(recv_end.recv()), proc
    finally:
        recv_end.close()


def test_a_restarted_daemon_on_the_same_port_just_asks_again():
    config, par = version_a()
    system = par.to_parallel()
    daemons = [spawn_daemon(), spawn_daemon()]
    engine = make_engine("socket", hosts=[addr for addr, _ in daemons])
    try:
        assert_matches_sequential(config, par, engine.run(system))
        assert_matches_sequential(config, par, engine.run(system))
        addr, proc = daemons[0]
        assert poll_stats(addr)["constant_hits"] == 2  # ranks 0 and 2

        os.kill(proc.pid, signal.SIGKILL)
        proc.join(10.0)
        daemons[0] = spawn_daemon(addr[1])
        assert daemons[0][0] == addr

        result = engine.run(system)  # nobody told the coordinator
        assert_matches_sequential(config, par, result)
        assert_constants_are_the_systems_own(system, result)
        fresh, kept = (poll_stats(a) for a, _ in daemons)
        assert (fresh["constant_misses"], fresh["constant_hits"]) == (2, 0)
        assert (kept["constant_misses"], kept["constant_hits"]) == (1, 2)
    finally:
        engine.close()
        for addr, proc in daemons:
            proc.kill()
            proc.join(10.0)


def test_a_daemon_that_evicts_everything_is_sent_everything_every_run(
    monkeypatch,
):
    monkeypatch.setattr(worker_module, "MAX_RESIDENT_CONSTANT_BYTES", 0)
    config, par = version_a()
    system = par.to_parallel()
    outs = []
    with thread_daemons(2) as (daemons, engine):
        for run in range(1, 4):
            result = engine.run(system)
            assert_matches_sequential(config, par, result)
            assert_constants_are_the_systems_own(system, result)
            outs.append(engine.last_timing["control_bytes_out"])
            assert counted(daemons, "constant_misses") == run * system.nprocs
            assert counted(daemons, "constant_evictions") == run * system.nprocs
            assert counted(daemons, "constants_resident") == 0
        assert counted(daemons, "constant_hits") == 0
    assert min(outs[1:]) > array_nbytes(system, constant=True)


# ---------------------------------------------------------------------------
# (c) writing a constant on a hit run fails the rank, not the resident copy
# ---------------------------------------------------------------------------


def test_writing_a_resident_constant_fails_the_rank_and_damages_nothing():
    system, const, returns = poking_system()
    with thread_daemons(2) as (daemons, engine):
        assert engine.run(system).returns == returns  # the miss run
        assert counted(daemons, "constant_misses") == 2

        system.processes[1].store["poke"] = 1
        with pytest.raises(ProcessFailedError) as info:
            engine.run(system)  # a hit run: the daemon's own copy
        assert info.value.rank == 1
        assert "read-only" in str(info.value)
        assert counted(daemons, "constant_hits") == 2

        system.processes[1].store["poke"] = 0
        result = engine.run(system)
        assert result.returns == returns  # from the resident copy, intact
        assert counted(daemons, "constant_misses") == 2
        assert counted(daemons, "constant_hits") == 4
        assert result.stores[1]["c"] is const
    assert bitwise_equal_arrays(const, np.arange(64.0))


# ---------------------------------------------------------------------------
# (d) concurrent jobs of one System share one resident copy per daemon
# ---------------------------------------------------------------------------


def test_two_inflight_fleet_jobs_share_one_resident_copy_per_daemon():
    config, par = version_a(n=13, steps=4)
    system = par.to_parallel()
    constant_bytes = array_nbytes(system, constant=True)
    with FleetScheduler(
        daemons=2, capacity=3, max_inflight=2, elastic=False
    ) as fleet:
        futures = [fleet.submit(system) for _ in range(4)]
        results = [f.result(timeout=120) for f in futures]
        assert fleet.stats()["inflight_hwm"] == 2
        stats = [poll_stats(addr) for addr in fleet.daemon_addresses]
    for result in results:
        assert_matches_sequential(config, par, result)
        assert_constants_are_the_systems_own(system, result)
    for s in stats:
        # However the eight placements fell: at most one copy of each
        # rank's set per daemon.
        assert s["constants_resident"] <= system.nprocs
        assert s["constant_bytes_resident"] <= constant_bytes
        assert s["constant_evictions"] == 0
    assert sum(s["constant_hits"] + s["constant_misses"] for s in stats) == (
        4 * system.nprocs
    )
    assert sum(s["constant_hits"] for s in stats) > 0


# ---------------------------------------------------------------------------
# (e) either side dying or lying in the need/constants exchange
# ---------------------------------------------------------------------------


def one_rank_system(nbytes):
    const = np.zeros(nbytes // 8)
    const.flags.writeable = False
    return System([ProcessSpec(0, lambda ctx: 1, store={"c": const, "v": 0})])


@pytest.mark.parametrize(
    "nbytes", [64, 8 << 20], ids=["reply-fits-a-buffer", "reply-hits-the-reset"]
)
def test_a_daemon_dying_right_after_need_is_a_clean_failure(nbytes):
    """A listener that plays a daemon up to ``need`` and then vanishes
    without the goodbye, as a SIGKILLed one does."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def impostor():
        sock, _ = listener.accept()
        stream = FrameStream(sock)
        assert wire.recv(stream) == ("control",)
        job = wire.recv(stream)[1]
        wire.send(stream, ("need", job["rank"]))
        stream.close()

    thread = threading.Thread(target=impostor, daemon=True)
    thread.start()
    t0 = time.monotonic()
    timing = {}
    try:
        with pytest.raises(ProcessFailedError) as info:
            run_assigned(
                one_rank_system(nbytes),
                [listener.getsockname()],
                fresh_job_id(),
                handshake_timeout=5.0,
                crash_grace=1.0,
                timing_sink=timing,
            )
    finally:
        thread.join(10.0)
        listener.close()
    assert info.value.rank == 0
    assert isinstance(info.value.original, (TransportError, WorkerCrashError))
    assert time.monotonic() - t0 < 10.0  # inside the grace, not a hang
    assert timing["control_bytes_in"] > 0  # counted on the failing path too


def job_frame(system, token):
    spec = system.processes[0]
    return (
        "job",
        {
            "job_id": fresh_job_id(),
            "rank": 0,
            "name": spec.name,
            "nprocs": 1,
            "body": closures.body_payloads(system)[0],
            "variables": {"v": 0},
            "constants": token,
            "w_specs": [],
            "r_specs": [],
            "recv_timeout": None,
            "observe": False,
            "handshake_timeout": 5.0,
            "trace_causal": False,
        },
    )


@pytest.mark.parametrize(
    "answer",
    [
        "wrong-token",
        "wrong-kind",
        "not-arrays",
        "truncated",
        "oversized",
        "clock-bit",
        "silence",
    ],
)
def test_a_coordinator_answering_need_wrongly_fails_the_rank_only(answer):
    system = one_rank_system(64)
    token = b"t" * 16
    with WorkerDaemon(handshake_timeout=5.0) as daemon:
        stream = dial_control(daemon.address, timeout=5.0)
        try:
            frame = job_frame(system, token)
            if answer == "silence":
                frame[1]["handshake_timeout"] = 0.2
            wire.send(stream, frame)
            assert wire.recv(stream) == ("need", 0)
            arrays = {"c": np.zeros(8)}
            if answer == "wrong-token":
                wire.send(stream, ("constants", b"x" * 16, arrays))
            elif answer == "wrong-kind":
                wire.send(stream, ("go",))
            elif answer == "not-arrays":
                wire.send(stream, ("constants", token, {"c": [0.0] * 8}))
            elif answer == "truncated":
                stream._sock.sendall(struct.pack(">Q", 4096) + b"half a frame")
                stream._sock.shutdown(socket.SHUT_WR)
            elif answer == "oversized":
                # No frame is this long: refused before 64 TiB are
                # reserved for it (a MemoryError in the handler once).
                stream._sock.sendall(struct.pack(">Q", 1 << 46))
            elif answer == "clock-bit":
                # The retired clock-word framing: top bit, then a word.
                stream._sock.sendall(struct.pack(">QQ", 1 << 63 | 16, 7))
            kind, rank, (how, data, _tb) = wire.recv(stream)
            assert (kind, rank, how) == ("error", 0, "pickle")
            assert isinstance(closures.loads(data), TransportError)
            with pytest.raises(EOFError):  # then the orderly goodbye
                wire.recv(stream)
        finally:
            stream.close()
        wait_idle(daemon)
        stats = daemon.stats()
        assert stats["constants_resident"] == 0  # nothing wrong was kept
        assert stats["constant_misses"] == 1

        # The daemon is as good as new: the same token, answered properly.
        stream = dial_control(daemon.address, timeout=5.0)
        try:
            wire.send(stream, job_frame(system, token))
            assert wire.recv(stream) == ("need", 0)
            wire.send(stream, ("constants", token, {"c": np.zeros(8)}))
            assert wire.recv(stream) == ("ready", 0)  # and it runs at once
            kind, rank, payload = wire.recv(stream)
            assert (kind, rank, payload["return"]) == ("done", 0, 1)
            assert set(payload["overrides"]) == {"v"}
        finally:
            stream.close()
        wait_idle(daemon)
        assert daemon.stats()["constants_resident"] == 1
        # ... and no connection handler is still parked on a stream
        # (CPython names a thread after its target).
        deadline = time.monotonic() + 10.0
        while any("(_handle)" in t.name for t in threading.enumerate()):
            assert time.monotonic() < deadline, "a handler thread was left"
            time.sleep(0.01)


# ---------------------------------------------------------------------------
# (f) a rebound constant still comes home
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,options",
    [
        ("multiprocess+pool", {"start_method": "fork"}),
        ("socket", {"daemons": 2}),
    ],
    ids=["pool", "socket"],
)
@pytest.mark.parametrize("n", [8, 64], ids=["by-value", "packed"])
def test_a_rebound_constant_comes_home_as_an_override(name, options, n):
    system, const, returns = poking_system(n)
    system.processes[1].store["poke"] = 2
    engine = make_engine(name, **options)
    try:
        for _ in range(2):  # the second: resident pack / resident set
            result = engine.run(system)
            assert result.returns == returns
            assert result.stores[0]["c"] is const  # left alone: our own
            doubled = result.stores[1]["c"]
            assert doubled is not const
            assert bitwise_equal_arrays(doubled, np.arange(float(n)) * 2.0)
            assert bitwise_equal_arrays(const, np.arange(float(n)))
    finally:
        engine.close()
