"""Cross-host transport tests: framing, feeder, rendezvous, channels,
daemons, and the socket engine — all over real sockets on loopback."""

import gc
import multiprocessing
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.dist import wire
from repro.dist.channels import EndpointSpec, SocketChannel
from repro.dist.net.daemon import WorkerDaemon
from repro.dist.net.feeder import SendFeeder
from repro.dist.net.frames import FrameStream
from repro.dist.net.engine import spawn_loopback_daemons, stop_loopback_daemons
from repro.dist.net.rendezvous import (
    ChannelBroker,
    assign_ranks,
    dial_control,
    parse_hosts,
)
from repro.errors import (
    EmptyChannelError,
    ProcessFailedError,
    RendezvousError,
    RendezvousTimeoutError,
    TransportAbortError,
)
from repro.runtime import ProcessSpec, System, ThreadedEngine, make_engine
from repro.util import bitwise_equal_arrays


def frame_pair():
    a, b = socket.socketpair()
    return FrameStream(a), FrameStream(b)


# ---------------------------------------------------------------------------
# Framing: the wire format over a real socketpair
# ---------------------------------------------------------------------------


WIRE_VALUES = [
    {"step": 3, "u": np.arange(12.0).reshape(3, 4)},
    ("tag", [np.zeros(0), np.float32(2.5), None]),
    # itemsize-1 arrays, multi-dimensional: exactly the shape that a
    # naive memoryview send would truncate to its first axis.
    np.ones((3, 4, 2), dtype=np.bool_),
    np.arange(24, dtype=np.int8).reshape(2, 3, 4),
    {"nested": {"c": np.array([1 + 2j, 3 - 4j])}, "s": "text"},
    b"raw-bytes",
]


def test_wire_roundtrip_over_socketpair():
    w, r = frame_pair()
    try:
        for value in WIRE_VALUES:
            wire.send(w, value)
        for value in WIRE_VALUES:
            got = wire.recv(r)
            if isinstance(value, np.ndarray):
                assert bitwise_equal_arrays(got, value)
                assert got.dtype == value.dtype and got.shape == value.shape
            else:
                assert repr(got) == repr(value)
    finally:
        w.close()
        r.close()


def test_goodbye_is_clean_eof():
    w, r = frame_pair()
    wire.send(w, "last value")
    w.send_goodbye()
    w.close()
    assert wire.recv(r) == "last value"
    with pytest.raises(EOFError):
        wire.recv(r)
    r.close()


def test_bare_close_is_abort():
    w, r = frame_pair()
    wire.send(w, "value")
    w.close()  # no goodbye: as if the writer was killed
    assert wire.recv(r) == "value"
    with pytest.raises(TransportAbortError):
        wire.recv(r)
    r.close()


def test_mid_frame_death_is_abort():
    import struct

    a, b = socket.socketpair()
    r = FrameStream(b)
    wire.send(FrameStream(a), "intact")
    # A frame claiming 1000 bytes, delivering 10, then death.
    a.sendall(struct.pack(">Q", 1000))
    a.sendall(b"x" * 10)
    a.close()
    assert wire.recv(r) == "intact"
    with pytest.raises(TransportAbortError, match="mid-frame"):
        wire.recv(r)
    r.close()


def test_frame_length_mismatch_is_abort():
    w, r = frame_pair()
    w.send_bytes(b"12345678")
    buf = np.zeros(4, dtype=np.int8)  # expects 4, stream says 8
    with pytest.raises(TransportAbortError, match="does not match"):
        r.recv_bytes_into(memoryview(buf))
    w.close()
    r.close()


# ---------------------------------------------------------------------------
# SendFeeder: shared queue+feeder core, idempotent shutdown
# ---------------------------------------------------------------------------


def test_feeder_close_runs_finisher_exactly_once():
    written, finished = [], []
    feeder = SendFeeder("t", written.append, lambda: finished.append(1))
    feeder.put("a")
    feeder.put("b")
    for _ in range(3):
        feeder.close()
    assert written == ["a", "b"]
    assert finished == [1]
    with pytest.raises(RuntimeError):
        feeder.put("after close")


def test_feeder_close_without_sends_still_finishes():
    finished = []
    feeder = SendFeeder("t", lambda item: None, lambda: finished.append(1))
    feeder.close()
    feeder.close()
    assert finished == [1]


def test_feeder_concurrent_close_is_single_shot():
    finished = []
    feeder = SendFeeder(
        "t", lambda item: time.sleep(0.001), lambda: finished.append(1)
    )
    for i in range(50):
        feeder.put(i)
    threads = [threading.Thread(target=feeder.close) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert finished == [1]


# ---------------------------------------------------------------------------
# Rendezvous
# ---------------------------------------------------------------------------


def test_parse_hosts():
    assert parse_hosts("hostA:9001, hostB:9002") == [
        ("hostA", 9001),
        ("hostB", 9002),
    ]
    with pytest.raises(ValueError):
        parse_hosts("no-port")
    with pytest.raises(ValueError):
        parse_hosts("")
    # a port no daemon can listen on fails here, not as a handshake
    # that retries "Connection refused" until its timeout
    assert parse_hosts("a:1,b:65535") == [("a", 1), ("b", 65535)]
    for spec in ("localhost:0", "localhost:99999", "a:9001,b:65536"):
        with pytest.raises(ValueError, match="outside 1..65535"):
            parse_hosts(spec)


def test_assign_ranks_round_robin():
    daemons = [("a", 1), ("b", 2)]
    assert assign_ranks(5, daemons) == [
        ("a", 1), ("b", 2), ("a", 1), ("b", 2), ("a", 1)
    ]
    with pytest.raises(RendezvousError):
        assign_ranks(2, [])


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here any more
    return port


def test_a_refused_dial_fails_at_once_naming_the_address():
    dead_addr = ("127.0.0.1", free_port())
    t0 = time.monotonic()
    with pytest.raises(RendezvousError, match=f"127.0.0.1:{dead_addr[1]}"):
        dial_control(dead_addr, timeout=30.0)
    assert time.monotonic() - t0 < 1.0  # one connect, no retry loop


def test_broker_offer_then_claim_and_claim_then_offer():
    broker = ChannelBroker()
    w, r = frame_pair()
    broker.offer(("job", "c0"), w)
    assert broker.claim(("job", "c0"), timeout=1.0) is w

    got = []
    waiter = threading.Thread(
        target=lambda: got.append(broker.claim(("job", "c1"), timeout=5.0))
    )
    waiter.start()
    broker.offer(("job", "c1"), r)
    waiter.join(timeout=5.0)
    assert got == [r]

    with pytest.raises(RendezvousTimeoutError):
        broker.claim(("job", "nobody"), timeout=0.05)
    w.close()
    r.close()


def test_broker_drop_job_closes_leftovers():
    broker = ChannelBroker()
    w, r = frame_pair()
    broker.offer(("doomed", "c0"), w)
    broker.drop_job("doomed")
    with pytest.raises(RendezvousTimeoutError):
        broker.claim(("doomed", "c0"), timeout=0.05)
    r.close()


# ---------------------------------------------------------------------------
# SocketChannel over a stream
# ---------------------------------------------------------------------------


def channel_pair(name="c", writer=0, reader=1):
    ws, rs = frame_pair()
    w_spec = EndpointSpec(name, writer, reader, "w", ws)
    r_spec = EndpointSpec(name, writer, reader, "r", rs)
    return SocketChannel(w_spec), SocketChannel(r_spec)


def test_socket_channel_roundtrip_stats_and_clean_close():
    w, r = channel_pair()
    payloads = [np.arange(6.0).reshape(2, 3), {"k": 1}, "text"]
    for p in payloads:
        w.send(p, rank=0)
    w.close()
    got = [r.recv(rank=1) for _ in payloads]
    assert bitwise_equal_arrays(got[0], payloads[0])
    assert got[1:] == payloads[1:]
    with pytest.raises(EmptyChannelError):
        r.recv(rank=1, timeout=1.0)
    stats = w.stats()
    assert set(stats) == {
        "sends", "bytes_sent", "frames", "pipe_bytes", "net_syscalls"
    }
    assert stats["sends"] == 3
    assert stats["frames"] == 3 + 1  # a header each, one array frame
    assert stats["pipe_bytes"] > payloads[0].nbytes  # the socket is the wire
    assert stats["net_syscalls"] == 3 + 1  # a gather each, the goodbye
    assert r.stats() == {"receives": 3}
    r.close()


def test_socket_channel_zero_send_close_is_empty_not_abort():
    w, r = channel_pair()
    w.close()  # goodbye must go out even though the feeder never started
    with pytest.raises(EmptyChannelError):
        r.recv(rank=1, timeout=1.0)
    r.close()


def test_socket_channel_abort_maps_to_process_failed():
    w, r = channel_pair()
    w.send("one", rank=0)
    # Simulate the writer's death: raw close, no goodbye.  Wait for the
    # feeder to flush the queued frame first.
    deadline = time.monotonic() + 5.0
    while not r.poll() and time.monotonic() < deadline:
        time.sleep(0.005)
    w._conn.close()
    assert r.recv(rank=1) == "one"
    with pytest.raises(ProcessFailedError) as excinfo:
        r.recv(rank=1)
    assert excinfo.value.rank == 0  # names the writer
    assert isinstance(excinfo.value.original, TransportAbortError)
    r.close()


def test_socket_channel_ownership_checks_inherited():
    from repro.errors import ChannelOwnershipError

    w, r = channel_pair()
    with pytest.raises(ChannelOwnershipError):
        w.send("x", rank=1)
    with pytest.raises(ChannelOwnershipError):
        r.recv(rank=0)
    w.close()
    r.close()


# ---------------------------------------------------------------------------
# Daemon + engine, loopback
# ---------------------------------------------------------------------------


def stencil_ring():
    def body(ctx):
        import numpy as _np

        u = _np.arange(4.0) + ctx.rank
        for _ in range(3):
            ctx.send(f"r{ctx.rank}", u[-1])
            ghost = ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")
            u[0] = 0.5 * (u[0] + ghost)
        ctx.store["u"] = u
        return float(u.sum())

    system = System([ProcessSpec(r, body) for r in range(4)])
    for r in range(4):
        system.add_channel(f"r{r}", r, (r + 1) % 4)
    return system


def test_socket_engine_matches_threaded_and_reuses_daemons():
    reference = ThreadedEngine().run(stencil_ring())
    engine = make_engine("socket")
    try:
        first = engine.run(stencil_ring())
        second = engine.run(stencil_ring())  # same daemons, fresh job_id
    finally:
        engine.close()
    for result in (first, second):
        assert result.returns == reference.returns
        for rank in range(4):
            assert bitwise_equal_arrays(
                result.stores[rank]["u"], reference.stores[rank]["u"]
            )
        assert result.channel_stats == reference.channel_stats
        assert result.channel_bytes == reference.channel_bytes


def test_socket_engine_close_stops_loopback_daemons():
    engine = make_engine("socket", handshake_timeout=10.0)
    addrs = engine.daemon_addresses
    procs = list(engine._local_procs)
    assert len(addrs) == 2 and len(procs) == 2
    engine.close()
    assert engine._local_procs == []
    for proc in procs:
        assert not proc.is_alive()
    for addr in addrs:
        with pytest.raises(RendezvousError):
            dial_control(addr, timeout=0.2)


def test_a_dropped_socket_engine_stops_its_loopback_daemons():
    engine = make_engine("socket", handshake_timeout=10.0)
    engine.run(stencil_ring())
    procs = list(engine._local_procs)
    assert len(procs) == 2 and all(p.is_alive() for p in procs)
    del engine  # never closed
    gc.collect()
    assert not any(p.is_alive() for p in procs)
    assert not {p.pid for p in procs} & {
        c.pid for c in multiprocessing.active_children()
    }


def test_socket_engine_surfaces_killed_daemon():
    def body(ctx):
        if ctx.rank == 1:
            os._exit(43)  # the whole daemon process dies mid-run
        ctx.store["got"] = ctx.recv("c")

    def make_system():
        s = System([ProcessSpec(0, body), ProcessSpec(1, body)])
        s.add_channel("c", 1, 0)
        return s

    engine = make_engine("socket", crash_grace=5.0)
    t0 = time.monotonic()
    try:
        with pytest.raises(ProcessFailedError):
            engine.run(make_system())
    finally:
        engine.close()
    assert time.monotonic() - t0 < 30.0  # bounded, not a hang


def test_socket_engine_traces():
    engine = make_engine("socket", trace=True)
    try:
        trace = engine.run(stencil_ring()).trace
    finally:
        engine.close()
    assert trace.validate() == []
    assert len(trace.send_recv_pairs()) == 12
    assert trace.events == trace.by_clock().events


def test_a_warm_run_against_a_killed_operator_daemon_fails_at_once():
    """The killed daemon's control dial is refused: the rank placed
    there fails as a ProcessFailedError naming the address, with no
    wait for the handshake timeout."""
    addrs, procs = spawn_loopback_daemons(2)
    engine = make_engine(
        "socket", hosts=",".join(f"{h}:{p}" for h, p in addrs),
        handshake_timeout=30.0,
    )
    try:
        engine.run(stencil_ring())
        procs[1].kill()
        procs[1].join()
        t0 = time.monotonic()
        with pytest.raises(ProcessFailedError) as failure:
            engine.run(stencil_ring())
        elapsed = time.monotonic() - t0
    finally:
        engine.close()
        stop_loopback_daemons(addrs, procs)
    assert elapsed < 1.0
    assert failure.value.rank in (1, 3)  # a rank placed on the dead daemon
    assert isinstance(failure.value.original, RendezvousError)
    assert f"{addrs[1][0]}:{addrs[1][1]}" in str(failure.value)


def test_an_operator_daemon_still_booting_is_waited_for():
    """A host that starts listening after the engine's first run() began
    is served: the engine waits for each operator host once."""
    port = free_port()
    daemon = WorkerDaemon("127.0.0.1", port)
    late = threading.Timer(0.5, daemon.start)
    engine = make_engine("socket", hosts=f"127.0.0.1:{port}")
    late.start()
    try:
        result = engine.run(stencil_ring())
    finally:
        late.join(timeout=5.0)
        engine.close()
        daemon.stop()
    reference = ThreadedEngine().run(stencil_ring())
    assert result.returns == reference.returns
    assert daemon.jobs_run == 4


def test_external_daemon_hosts_and_shared_daemon():
    """Both ranks assigned to ONE externally managed daemon: the
    engine's --hosts path, with writer dial and reader claim riding
    loopback into the same process."""
    with WorkerDaemon("127.0.0.1", 0) as daemon:
        host, port = daemon.address
        engine = make_engine("socket", hosts=f"{host}:{port}")
        try:
            result = engine.run(stencil_ring())
        finally:
            engine.close()
        assert daemon.jobs_run == 4  # close() left the daemon alone
        # every send of an un-pressured run went inline
        assert daemon.stats()["feeder_threads"] == 0
        reference = ThreadedEngine().run(stencil_ring())
        assert result.returns == reference.returns


def test_daemon_feeder_threads_gauge_is_live():
    """The gauge counts ``feed-*`` threads alive now, not ever started."""
    gate = threading.Event()
    ch = threading.Thread(target=gate.wait, name="feed-stalled", daemon=True)
    daemon = WorkerDaemon("127.0.0.1", 0)
    ch.start()
    try:
        assert daemon.stats()["feeder_threads"] == 1
    finally:
        gate.set()
        ch.join(5.0)
    assert not ch.is_alive()
    assert daemon.stats()["feeder_threads"] == 0


def test_worker_daemon_cli_rejects_bad_flags(capsys):
    assert main(["worker-daemon", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_socket_engine_observe_merges_wire_counters():
    engine = make_engine("socket", observe=True)
    try:
        result = engine.run(stencil_ring())
    finally:
        engine.close()
    report = result.report
    assert report is not None
    # The run-total counters are the channels' own, summed.
    assert report.metrics["wire/frames"] == sum(
        result.channel_frames.values()
    ) > 0
    assert report.metrics["wire/bytes"] == sum(
        result.channel_pipe_bytes.values()
    ) > 0
    assert report.metrics["wire/syscalls"] == sum(
        result.channel_net_syscalls.values()
    ) > 0
