"""Connections that outlive their run: control and data connections to
worker daemons carry one session after another, each opened by its
hello (:mod:`repro.dist.net.rendezvous`).  A warm run dials and accepts
nothing; a failed, dirty or dead connection is never reused; nothing is
left open after close and stop; and a hello of the wrong shape is
counted and closes its connection without killing its handler."""

import multiprocessing
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.dist import closures, wire
from repro.dist.fleet import FleetScheduler
from repro.dist.net.daemon import WorkerDaemon
from repro.dist.net.frames import FrameStream
from repro.dist.net.rendezvous import StreamPool, dial_control
from repro.errors import ProcessFailedError, TransportAbortError
from repro.runtime import ProcessSpec, System, ThreadedEngine, make_engine
from repro.util import bitwise_equal_arrays


def ring(nprocs=3, rounds=3):
    def body(ctx):
        import numpy as _np

        u = _np.arange(4.0) + ctx.rank
        for _ in range(rounds):
            ctx.send(f"r{ctx.rank}", u[-1])
            u[0] = 0.5 * (u[0] + ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}"))
        ctx.store["u"] = u
        return float(u.sum())

    system = System([ProcessSpec(r, body) for r in range(nprocs)])
    for r in range(nprocs):
        system.add_channel(f"r{r}", r, (r + 1) % nprocs)
    return system


def assert_like_threaded(result, system):
    reference = ThreadedEngine().run(system)
    assert result.returns == reference.returns
    for got, want in zip(result.stores, reference.stores):
        assert bitwise_equal_arrays(np.asarray(got["u"]), np.asarray(want["u"]))


def handler_threads() -> list[threading.Thread]:
    # CPython names a thread after its target.
    return [t for t in threading.enumerate() if "(_handle)" in t.name]


def await_true(predicate, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def daemons():
    pair = [WorkerDaemon(), WorkerDaemon()]
    for daemon in pair:
        daemon.start()
    yield pair
    for daemon in pair:
        daemon.stop()


@pytest.fixture
def engine(daemons):
    engine = make_engine("socket", hosts=[d.address for d in daemons])
    yield engine
    engine.close()


@pytest.fixture
def thread_crashes(monkeypatch):
    """Exceptions that escaped any thread during the test."""
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    return crashes


def accepted(daemons) -> list[int]:
    return [d.stats()["accepted_conns"] for d in daemons]


# ---------------------------------------------------------------------------
# Warm runs dial nothing, and count per session
# ---------------------------------------------------------------------------


def channel_counters(result) -> list[tuple]:
    return [
        (c.name, c.sends, c.receives, c.bytes_sent, c.frames, c.pipe_bytes,
         c.net_syscalls)
        for c in result.report.channels
    ]


def test_warm_runs_make_no_connection_and_start_no_thread(daemons):
    engine = make_engine(
        "socket", hosts=[d.address for d in daemons], observe=True
    )
    try:
        system = ring()
        first = engine.run(system)
        assert_like_threaded(first, system)
        conns, threads = accepted(daemons), set(threading.enumerate())
        sessions = [d.stats()["control_conns"] for d in daemons]
        control = set()
        for _ in range(5):
            result = engine.run(system)
            assert result.returns == first.returns
            # Each session counts itself: a reused stream starts at zero.
            assert channel_counters(result) == channel_counters(first)
            control.add(
                (
                    engine.last_timing["control_bytes_out"],
                    engine.last_timing["control_bytes_in"],
                )
            )
        assert accepted(daemons) == conns
        assert set(threading.enumerate()) == threads
    finally:
        engine.close()
    # ... yet every run opened its control sessions (rank r on daemon
    # r % 2) and its channels' data sessions.
    assert [d.stats()["control_conns"] for d in daemons] == [
        n + 5 * k for n, k in zip(sessions, (2, 1))
    ]
    assert len(control) == 1
    assert all(d.stats()["bad_hellos"] == 0 for d in daemons)
    # A fresh connection's session: the hello, one gather per value
    # (three rounds), the goodbye.
    assert {c[-1] for c in channel_counters(first)} == {1 + 3 + 1}


def draining_reader():
    """Rank 0 writes three values and ends; rank 1 reads until the
    channel is empty, and asks once more."""

    def body(ctx):
        from repro.errors import EmptyChannelError

        if ctx.rank == 0:
            for k in range(3):
                ctx.send("c", float(k))
            return None
        got = []
        try:
            while True:
                got.append(ctx.recv("c"))
        except EmptyChannelError:
            pass
        try:
            ctx.recv("c")
        except EmptyChannelError:
            return got
        return None

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("c", 0, 1)
    return system


def test_a_reader_that_drains_to_the_end_releases_at_once(daemons, engine):
    """The reader read its writer's goodbye itself; closing the channel
    then sends the release without waiting for a second goodbye."""
    system = draining_reader()
    for run in range(3):
        t0 = time.monotonic()
        result = engine.run(system)
        assert time.monotonic() - t0 < 5.0  # no handshake timeout waited out
        assert result.returns == [None, [0.0, 1.0, 2.0]]
        if run == 0:
            conns = accepted(daemons)
    assert accepted(daemons) == conns  # the data connection was reused
    assert [d.stats()["data_conns"] for d in daemons] == [0, 3]


# ---------------------------------------------------------------------------
# Failed, dirty and dead connections are not reused
# ---------------------------------------------------------------------------


def failing_reader(reads=3, sleep=0.0):
    """Rank 0 writes three values; rank 1 reads ``reads`` of them,
    sleeps ``sleep`` seconds, then raises."""

    def body(ctx):
        import time as _time

        if ctx.rank == 0:
            for k in range(3):
                ctx.send("c", float(k))
            return None
        got = [ctx.recv("c") for _ in range(reads)]
        _time.sleep(sleep)
        raise RuntimeError(f"reader gave up after {got}")

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("c", 0, 1)
    return system


def test_a_failed_reader_leaves_no_stream_for_the_next_run(daemons, engine):
    engine.run(ring())
    # The reader read every value and its writer said goodbye, yet the
    # stream is not reused: its reader failed.
    with pytest.raises(ProcessFailedError, match="reader gave up"):
        engine.run(failing_reader())
    conns = accepted(daemons)
    t0 = time.monotonic()
    system = ring()
    assert_like_threaded(engine.run(system), system)
    assert time.monotonic() - t0 < 5.0  # no handshake timeout waited out
    # Dialled anew: the failed run's two control connections, and its
    # channel's (daemon 0 to 1, where the ring's channel r0 runs).
    assert sum(accepted(daemons)) - sum(conns) == 2 + 1


def test_a_stream_is_reused_only_after_its_reader_released_it(thread_crashes):
    """Two coordinators share one daemon.  While a reader of the first
    is still holding its stream (its writer has parked the other end),
    the second coordinator's run must not be handed that stream: the
    reader then fails and closes it, and would have taken the second
    run's hello with it."""
    with WorkerDaemon() as daemon:
        hosts = [daemon.address]
        slow, fast = (make_engine("socket", hosts=hosts) for _ in range(2))
        try:
            fast.run(ring(2))  # every connection the daemon needs, warm
            box = {}

            def doomed():
                try:
                    slow.run(failing_reader(reads=2, sleep=1.0))
                except ProcessFailedError as exc:
                    box["error"] = exc

            runner = threading.Thread(target=doomed)
            runner.start()
            # The writer rank has ended (its stream is parked) while the
            # reader still sleeps on it.
            assert await_true(lambda: daemon.stats()["jobs_run"] >= 4)
            time.sleep(0.2)
            for _ in range(3):
                t0 = time.monotonic()
                system = ring(2)
                assert_like_threaded(fast.run(system), system)
                assert time.monotonic() - t0 < 5.0
            runner.join(30.0)
            assert "reader gave up" in str(box["error"])
            t0 = time.monotonic()
            assert_like_threaded(fast.run(ring(2)), ring(2))
            assert time.monotonic() - t0 < 5.0
        finally:
            slow.close()
            fast.close()
    assert thread_crashes == []


def test_garbage_on_a_parked_stream_closes_it(daemons, engine, thread_crashes):
    system = ring()
    engine.run(system)
    parked = engine._streams.take(daemons[0].address)
    assert parked is not None
    parked.send_bytes(b"\x80\x05garbage-not-a-pickle")
    assert await_true(lambda: daemons[0].stats()["bad_hellos"] == 1)
    assert parked.poll(5.0)  # the daemon hung up
    with pytest.raises(TransportAbortError):  # closed, no goodbye
        wire.recv(parked)
    parked.close()
    assert_like_threaded(engine.run(system), system)
    assert thread_crashes == []


def test_a_daemon_killed_between_fleet_jobs_is_retried_around():
    """Its parked control connection is dead: the next job's dial is
    refused at once, whatever the handshake timeout (30 s by default),
    and the attempt is re-placed on the survivors."""
    with FleetScheduler(
        daemons=3, heartbeat_interval=10.0, crash_grace=2.0,
    ) as sched:
        system = ring(2)
        first = sched.submit(system).result(timeout=60)
        assert sched.job_stats()[0].attempts == 1
        victim = sched.local_procs[0]
        victim.kill()
        victim.join()
        t0 = time.monotonic()
        result = sched.submit(ring(2)).result(timeout=60)
        elapsed = time.monotonic() - t0
        record = sched.job_stats()[1]
        states = sched.daemon_states()
        retries = sched.stats()["retries"]
    assert result.returns == first.returns
    assert_like_threaded(result, ring(2))
    assert record.ok and record.attempts >= 2
    assert len(record.placed_on) == 2
    assert sum(1 for d in states if not d["alive"]) >= 1
    assert retries >= 1
    assert elapsed < 3.0


# ---------------------------------------------------------------------------
# Nothing is left behind
# ---------------------------------------------------------------------------


def test_close_and_stop_leave_no_stream_and_no_handler(daemons, engine):
    before = set(handler_threads())
    engine.run(ring())
    engine.run(ring())
    assert engine._streams._parked
    assert any(d._outbound._parked for d in daemons)
    engine.close()
    assert engine._streams._parked == {}
    for daemon in daemons:
        daemon.stop()
        assert daemon._outbound._parked == {}
    assert await_true(lambda: not set(handler_threads()) - before)
    assert all(daemon._idle == set() for daemon in daemons)


def _open_socket_inodes() -> set[int]:
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            inodes.add(os.fstat(int(fd)).st_ino)
        except OSError:
            pass  # the listing's own descriptor
    return inodes


def _report_inodes(out):
    out.send(_open_socket_inodes())
    out.close()


def test_a_forked_child_closes_its_copies_of_parked_streams(engine):
    engine.run(ring())
    parked = {
        os.fstat(stream.fileno()).st_ino
        for entries in engine._streams._parked.values()
        for stream, _released in entries
    }
    assert len(parked) == 3  # one per rank
    assert parked <= _open_socket_inodes()
    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_report_inodes, args=(send_end,))
    child.start()
    send_end.close()
    assert not parked & recv_end.recv()
    child.join(10.0)
    # ... while the parent's connections stay open and in use.
    conns = engine.daemon_addresses
    assert engine.run(ring()).returns == engine.run(ring()).returns
    assert conns == engine.daemon_addresses


def test_a_pool_keeps_a_bounded_number_per_address():
    from repro.dist.net import rendezvous

    pool = StreamPool()
    pairs = [socket.socketpair() for _ in range(rendezvous.MAX_PARKED + 2)]
    streams = [FrameStream(a) for a, _b in pairs]
    for stream in streams:
        pool.park(("h", 1), False, stream)
    assert [s.closed for s in streams].count(True) == 2
    assert pool.take(("h", 1)) is streams[0]
    pool.close()
    assert all(s.closed for s in streams[1:])
    streams[0].close()
    for _a, b in pairs:
        b.close()


# ---------------------------------------------------------------------------
# A hello of the wrong shape
# ---------------------------------------------------------------------------


#: Each sent as a wire frame, as a real hello is, so that it reaches the
#: daemon's hello check; the last is not a frame the wire can decode.
BAD_HELLOS = {
    "int": 5,
    "empty": (),
    "data-without-key": ("data",),
    "data-with-ints": ("data", 1, 2),
    "control-with-extra": ("control", "x"),
    "list": ["control"],
    "unknown-kind": ("nonsense",),
    "unhashable-kind": ([1],),
    "not-a-pickle": b"\x80\x05garbage-not-a-pickle",
}


def assert_serves_a_run(daemon):
    engine = make_engine("socket", hosts=[daemon.address])
    try:
        system = ring(2)
        assert_like_threaded(engine.run(system), system)
    finally:
        engine.close()


@pytest.mark.parametrize("hello", BAD_HELLOS.values(), ids=BAD_HELLOS)
def test_a_malformed_hello_is_counted_and_closed(hello, thread_crashes):
    with WorkerDaemon() as daemon:
        stream = FrameStream(socket.create_connection(daemon.address, 5.0))
        try:
            if isinstance(hello, bytes):
                stream.send_bytes(hello)
            else:
                wire.send(stream, hello)
            assert await_true(lambda: daemon.stats()["bad_hellos"] == 1)
            assert stream.poll(5.0)  # hung up
        finally:
            stream.close()
        stats = daemon.stats()
        assert stats["data_conns"] == stats["control_conns"] == 0
        assert_serves_a_run(daemon)
        assert daemon.stats()["bad_hellos"] == 1
    assert thread_crashes == []


def test_a_job_frame_without_its_fields_is_refused(thread_crashes):
    """A control session whose job frame lacks the job's fields ends
    with a goodbye and a closed connection, not a silent one."""
    with WorkerDaemon() as daemon:
        stream = dial_control(daemon.address, 5.0)
        try:
            wire.send(stream, ("job", {}))
            assert stream.poll(5.0)
            with pytest.raises(EOFError):  # the clean goodbye
                wire.recv(stream)
            assert await_true(lambda: daemon.stats()["ranks_active"] == 0)
        finally:
            stream.close()
        assert daemon.stats()["jobs_run"] == 0
        assert_serves_a_run(daemon)
    assert thread_crashes == []


def test_a_refused_control_hello_on_a_reused_connection(thread_crashes):
    """A draining daemon refuses a reused connection's control hello
    exactly as a new one's: goodbye, then close."""
    with WorkerDaemon() as daemon:
        pool = StreamPool()
        engine = make_engine("socket", hosts=[daemon.address])
        try:
            engine.run(ring(2))
            stream = engine._streams.take(daemon.address)
            pool.park(daemon.address, False, stream)
        finally:
            engine.close()
        with daemon._drain_cv:
            daemon._draining = True
        stream = dial_control(daemon.address, 5.0, pool)
        with pytest.raises(EOFError):
            wire.recv(stream)
        stream.close()
        assert daemon.stats()["refused_conns"] == 1
        # The first run's readiness ping, then its ranks and channels.
        assert daemon.stats()["accepted_conns"] == 1 + 2 + 2
    assert thread_crashes == []


def test_a_parked_stream_is_never_taken_twice_at_once():
    """Rank threads of a daemon (and a fleet's dispatch threads) share
    one pool: more takers than cores, a short switch interval, and no
    stream may be held by two of them at once."""
    import sys

    pool = StreamPool()
    pairs = [socket.socketpair() for _ in range(4)]
    for a, _b in pairs:
        pool.park(("h", 1), False, FrameStream(a))
    held, lock, clashes = set(), threading.Lock(), []

    def taker():
        for _ in range(300):
            stream = pool.take(("h", 1))
            if stream is None:
                continue
            with lock:
                if stream in held:
                    clashes.append(stream)
                held.add(stream)
            with lock:
                held.discard(stream)
            pool.park(("h", 1), False, stream)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=taker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert clashes == []
    assert len(pool._parked[("h", 1)]) == 4  # none lost, none closed
    pool.close()
    for _a, b in pairs:
        b.close()
