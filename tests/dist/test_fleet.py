"""Fleet scheduler tests: wire stats, heartbeats, placement, retry
re-placement after daemon death (bitwise-identical results, Theorem 1),
exhausted retries, admission control, elastic capacity, and drain
shutdown — all over real loopback daemons."""

import multiprocessing
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.dist import wire
from repro.dist.engine import WorkerCrashError
from repro.dist.fleet import (
    DaemonState,
    FleetScheduler,
    HeartbeatMonitor,
    ServerClosedError,
    elastic_capacity,
    least_loaded,
)
from repro.dist.net.daemon import WorkerDaemon
from repro.dist.net.frames import FrameStream
from repro.dist.net.rendezvous import dial_control, poll_stats
from repro.errors import (
    ProcessFailedError,
    RendezvousError,
    RendezvousTimeoutError,
    TransportAbortError,
)
from repro.runtime import ProcessSpec, System, ThreadedEngine
from repro.util import bitwise_equal_arrays


def stencil_ring(nprocs=2, rounds=3, sleep=0.0):
    """The miniature FDTD exchange/compute ring used across the engine
    tests — with an optional per-round sleep so a kill can land mid-job."""

    def body(ctx):
        import time as _time

        import numpy as _np

        u = _np.arange(4.0) + ctx.rank
        for _ in range(rounds):
            ctx.send(f"r{ctx.rank}", u[-1])
            ghost = ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")
            if sleep:
                _time.sleep(sleep)
            u[0] = 0.5 * (u[0] + ghost)
        ctx.store["u"] = u
        return float(u.sum())

    system = System([ProcessSpec(r, body) for r in range(nprocs)])
    for r in range(nprocs):
        system.add_channel(f"r{r}", r, (r + 1) % nprocs)
    return system


def assert_matches_reference(result, nprocs=2, rounds=3):
    reference = ThreadedEngine().run(stencil_ring(nprocs, rounds))
    assert result.returns == reference.returns
    for rank in range(nprocs):
        assert bitwise_equal_arrays(
            np.asarray(result.stores[rank]["u"]),
            np.asarray(reference.stores[rank]["u"]),
        )


# ---------------------------------------------------------------------------
# Satellite: stats over the wire
# ---------------------------------------------------------------------------


def test_poll_stats_over_the_wire():
    with WorkerDaemon() as daemon:
        stats = poll_stats(daemon.address, timeout=5.0)
    assert stats["jobs_run"] == 0
    assert stats["ranks_active"] == 0
    assert stats["stats_conns"] == 1
    assert stats["pid"] > 0
    assert stats["uptime_s"] >= 0.0
    assert stats["draining"] is False


def test_poll_stats_unreachable_daemon_raises():
    with WorkerDaemon() as daemon:
        addr = daemon.address
    with pytest.raises(RendezvousError):
        poll_stats(addr, timeout=1.0)


def test_poll_stats_fails_fast():
    with WorkerDaemon() as daemon:
        addr = daemon.address
        assert poll_stats(addr, timeout=2.0)["ranks_active"] == 0
    t0 = time.monotonic()
    with pytest.raises(RendezvousError, match=f"{addr[0]}:{addr[1]}"):
        poll_stats(addr, timeout=30.0)
    assert time.monotonic() - t0 < 1.0  # refused connect, no retry loop


def _answer_pings_with(reply: bytes, hold: bool = False):
    """A listener that reads each connection's hello and ping, then
    answers ``reply`` (raw bytes) and hangs up — or, with ``hold``,
    keeps the connection open and silent until stopped; its address and
    a stop."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    done = threading.Event()

    def serve():
        while not done.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                continue
            with conn:
                stream = FrameStream(conn)
                try:
                    wire.recv(stream)  # the hello
                    wire.recv(stream)  # the ping
                    conn.sendall(reply)
                    if hold:
                        done.wait()
                except (EOFError, OSError, TransportAbortError):
                    pass
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    def stop():
        done.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    return listener.getsockname(), stop


def _framed(value) -> bytes:
    a, b = socket.socketpair()
    with a, b:
        wire.send(FrameStream(a), value)
        return b.recv(1 << 16)


MALFORMED_PONGS = {
    "short tuple": lambda: _framed(("pong",)),
    "not a tuple": lambda: _framed(5),
    "truncated frame": lambda: struct.pack(">Q", 100) + b"pong",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PONGS))
def test_a_malformed_pong_is_a_rendezvous_error_and_a_counted_miss(name):
    addr, stop = _answer_pings_with(MALFORMED_PONGS[name]())
    try:
        with pytest.raises(RendezvousError, match=f"{addr[0]}:{addr[1]}"):
            poll_stats(addr, timeout=2.0)
        daemon = DaemonState(address=addr, capacity=1, floor=1)
        monitor = HeartbeatMonitor(
            [daemon], threading.Condition(), interval=0.02,
            miss_threshold=2, ping_timeout=1.0,
        )
        monitor.beat(daemon)
        assert (daemon.misses, daemon.alive) == (1, True)
        monitor.start()
        deadline = time.monotonic() + 10.0
        while daemon.misses < 4 and time.monotonic() < deadline:
            time.sleep(0.02)
        alive = monitor._thread.is_alive()
        monitor.stop()
    finally:
        stop()
    assert daemon.misses >= 4 and not daemon.alive
    assert alive  # the heartbeat thread outlived every bad pong


def test_a_stalled_partial_pong_times_out_and_is_a_counted_miss():
    # The reply starts (a length prefix and 4 of its 100 bytes) and the
    # connection stays open: the timeout bounds the whole reply, not
    # just its first byte, and the heartbeat thread is not stuck on it.
    addr, stop = _answer_pings_with(struct.pack(">Q", 100) + b"pong", hold=True)
    try:
        t0 = time.monotonic()
        with pytest.raises(RendezvousTimeoutError, match=f"{addr[0]}:{addr[1]}"):
            poll_stats(addr, timeout=1.0)
        assert time.monotonic() - t0 < 2.0
        daemon = DaemonState(address=addr, capacity=1, floor=1)
        monitor = HeartbeatMonitor(
            [daemon], threading.Condition(), interval=0.02,
            miss_threshold=2, ping_timeout=0.3,
        )
        monitor.start()
        deadline = time.monotonic() + 10.0
        while daemon.misses < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        alive = monitor._thread.is_alive()
        monitor.stop()
    finally:
        stop()
    assert daemon.misses >= 3 and not daemon.alive
    assert alive


def test_stats_stream_is_persistent():
    """One stats connection answers many pings — the heartbeat wire."""
    from repro.dist.net.rendezvous import dial_stats

    with WorkerDaemon() as daemon:
        stream = dial_stats(daemon.address, timeout=5.0)
        try:
            for seq in range(3):
                wire.send(stream, ("ping", seq))
                assert stream.poll(5.0)
                reply = wire.recv(stream)
                assert reply[0] == "pong" and reply[1] == seq
            assert reply[2]["stats_conns"] == 1  # one stream, 3 pings
        finally:
            stream.close()


# ---------------------------------------------------------------------------
# Satellite: drain shutdown
# ---------------------------------------------------------------------------


def test_daemon_drains_inflight_job_before_closing():
    """stop() during a run lets the job finish cleanly — no spurious
    TransportAbortError — and refuses new control connections."""
    from repro.runtime import make_engine

    with WorkerDaemon() as daemon:
        addr = daemon.address
        engine = make_engine("socket", hosts=f"{addr[0]}:{addr[1]}")
        result_box = {}

        system = stencil_ring(sleep=0.15)

        def run():
            result_box["result"] = engine.run(system)

        runner = threading.Thread(target=run)
        runner.start()
        try:
            # Every rank, not just the first: the coordinator dials one
            # control connection per rank, and a daemon that is already
            # draining refuses the ones still to come.
            deadline = time.monotonic() + 10.0
            while daemon.stats()["ranks_active"] != system.nprocs:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            daemon.stop()  # mid-job: must drain, not abort
        finally:
            runner.join(timeout=30.0)
            engine.close()
        assert not runner.is_alive()
    assert_matches_reference(result_box["result"])
    assert daemon.stats()["ranks_active"] == 0


def test_draining_daemon_refuses_new_control_hellos():
    daemon = WorkerDaemon()
    addr = daemon.start()
    with daemon._drain_cv:
        daemon._draining = True
    try:
        stream = dial_control(addr, timeout=5.0)
        # Orderly refusal: goodbye then close — a clean EOF, not abort.
        with pytest.raises(EOFError):
            wire.recv(stream)
        stream.close()
        assert daemon.stats()["refused_conns"] == 1
    finally:
        daemon.stop()


# ---------------------------------------------------------------------------
# Unit: placement + elastic capacity
# ---------------------------------------------------------------------------


def _daemons(*free):
    out = []
    for i, (cap, reserved) in enumerate(free):
        d = DaemonState(address=("h", 9000 + i), capacity=cap, floor=1)
        d.reserved = reserved
        out.append(d)
    return out


def test_least_loaded_spreads_and_respects_capacity():
    daemons = _daemons((2, 0), (2, 1))
    assign = least_loaded(3, daemons)
    # d0 has 2 free, d1 has 1: greedy takes d0, d0 (tie -> first), d1.
    assert [d.address[1] for d in assign] == [9000, 9000, 9001]
    assert least_loaded(4, daemons) is None  # only 3 free


def test_least_loaded_skips_dead_daemons():
    daemons = _daemons((4, 0), (4, 0))
    daemons[0].alive = False
    assign = least_loaded(2, daemons)
    assert all(d is daemons[1] for d in assign)
    daemons[1].alive = False
    assert least_loaded(1, daemons) is None


def test_elastic_capacity_controller():
    # Saturated -> additive increase, capped at the ceiling.
    assert elastic_capacity(4, 4, 4, 8) == 5
    assert elastic_capacity(8, 9, 4, 8) == 8
    # Mostly idle -> additive decrease, floored.
    assert elastic_capacity(6, 2, 4, 8) == 5
    assert elastic_capacity(4, 0, 4, 8) == 4
    # In the comfortable band -> unchanged.
    assert elastic_capacity(4, 3, 4, 8) == 4


# ---------------------------------------------------------------------------
# The scheduler: happy path, placement accounting, admission
# ---------------------------------------------------------------------------


def test_fleet_serves_concurrent_jobs_identically():
    with FleetScheduler(daemons=2, heartbeat_interval=0.2) as sched:
        futures = [sched.submit(stencil_ring()) for _ in range(4)]
        results = [f.result(timeout=120) for f in futures]
    for result in results:
        assert_matches_reference(result)
    records = sched.job_stats()
    assert len(records) == 4
    assert all(r.ok and r.attempts == 1 for r in records)
    assert all(len(r.placed_on) == 2 for r in records)
    stats = sched.stats()
    assert stats["jobs_done"] == 4
    assert stats["retries"] == 0
    assert stats["daemons_alive"] == 2


def test_fleet_rejects_oversized_job_at_submit():
    # The message names the fleet's ceiling, daemons x capacity.
    with FleetScheduler(daemons=1, capacity=2, elastic=False) as sched:
        with pytest.raises(
            ValueError, match=r"tops out at 2 \(1 daemons x 2\)"
        ):
            sched.submit(stencil_ring(nprocs=3))


def test_elastic_fleet_rejects_a_job_its_idle_daemons_cannot_place():
    # The controller grows only a daemon already running at its
    # capacity, so on an idle fleet a job larger than daemons x capacity
    # would never be placed: it is refused at submit, not left waiting
    # (and should it be queued, closing without drain sheds it).
    sched = FleetScheduler(daemons=2, capacity=1)
    try:
        with pytest.raises(
            ValueError, match=r"tops out at 2 \(2 daemons x 1\)"
        ):
            sched.submit(stencil_ring(nprocs=3))
    finally:
        sched.close(drain=False)


@pytest.mark.parametrize(
    "options", [{"daemons": 0}, {"max_inflight": 0}], ids=str
)
def test_sizes_below_one_raise_before_a_daemon_starts(options):
    before = {p.pid for p in multiprocessing.active_children()}
    with pytest.raises(ValueError, match=next(iter(options))):
        FleetScheduler(**options)
    assert {p.pid for p in multiprocessing.active_children()} == before


def test_fleet_block_admission_control():
    with FleetScheduler(
        daemons=1, capacity=2, max_inflight=1, heartbeat_interval=0.2,
    ) as sched:
        futures = [sched.submit(stencil_ring()) for _ in range(3)]
        for f in futures:
            assert_matches_reference(f.result(timeout=120))
    assert sched.stats()["inflight_hwm"] == 1


def test_fleet_submit_after_close_raises():
    sched = FleetScheduler(daemons=1, heartbeat_interval=0.2)
    sched.close()
    with pytest.raises(ServerClosedError):
        sched.submit(stencil_ring())


# ---------------------------------------------------------------------------
# The tentpole guarantee: daemon death -> re-placement, identical result
# ---------------------------------------------------------------------------


def _wait_for_inflight(sched, deadline_s=15.0):
    """True once some daemon reports a running rank.  Probes the wire
    directly so it works even when the heartbeat is parked."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for addr in sched.daemon_addresses:
            try:
                stats = poll_stats(addr, timeout=1.0)
            except RendezvousError:
                continue
            if stats["ranks_active"] > 0:
                return True
        time.sleep(0.02)
    return False


def test_kill_daemon_mid_job_replaces_bitwise_identically():
    with FleetScheduler(
        daemons=3, heartbeat_interval=0.2, crash_grace=2.0,
    ) as sched:
        future = sched.submit(stencil_ring(sleep=0.2))
        assert _wait_for_inflight(sched)
        victim = sched.local_procs[0]
        victim.kill()
        victim.join()
        result = future.result(timeout=120)
        record = sched.job_stats()[0]
        states = sched.daemon_states()
    # Theorem 1 across the failure: the re-placed run's result is
    # bitwise identical to a clean single-host run.
    assert_matches_reference(result)
    assert record.ok
    assert record.attempts >= 2  # at least one re-placement happened
    assert len(record.placed_on) == 2
    assert sum(1 for d in states if not d["alive"]) >= 1
    assert sched.stats()["retries"] >= 1


def test_kill_all_daemons_raises_without_hang():
    with FleetScheduler(
        daemons=2, heartbeat_interval=0.2, crash_grace=2.0, max_attempts=2,
        handshake_timeout=5.0,
    ) as sched:
        future = sched.submit(stencil_ring(sleep=0.2))
        assert _wait_for_inflight(sched)
        for proc in sched.local_procs:
            proc.kill()
            proc.join()
        with pytest.raises(ProcessFailedError) as excinfo:
            future.result(timeout=120)
        assert isinstance(
            excinfo.value.original,
            (RendezvousError, TransportAbortError, WorkerCrashError,
             EOFError, OSError),
        )
        record = sched.job_stats()[0]
        assert record.ok is False
    # close() already ran: no leaked daemons, scheduler fully settled.
    assert all(not p.is_alive() for p in sched.local_procs)


def test_body_errors_are_not_retried():
    def exploding(ctx):
        raise RuntimeError("boom from the body")

    system = System([ProcessSpec(0, exploding)])
    with FleetScheduler(
        daemons=2, heartbeat_interval=0.2, crash_grace=2.0,
    ) as sched:
        future = sched.submit(system)
        with pytest.raises(ProcessFailedError, match="boom from the body"):
            future.result(timeout=120)
        record = sched.job_stats()[0]
    assert record.attempts == 1  # determinacy does not excuse real bugs
    assert sched.stats()["retries"] == 0


def test_injected_fault_keeps_its_provenance():
    from repro.explore import apply_faults, parse_fault_plan
    from repro.explore.fixtures import prodcons_system

    system = apply_faults(prodcons_system(), parse_fault_plan("kill:0@2"))
    with FleetScheduler(
        daemons=2, heartbeat_interval=0.2, crash_grace=2.0,
    ) as sched:
        with pytest.raises(ProcessFailedError) as failure:
            sched.submit(system).result(timeout=120)
        assert sched.job_stats()[0].attempts == 1
    err = failure.value
    assert (err.rank, err.step, err.fault_id) == (0, 2, "kill:0@2")


def test_exhausted_retries_raise_process_failed():
    """Every attempt lands on a dying fleet: bounded attempts, then
    ProcessFailedError — no hang, no leaked reservation."""
    with FleetScheduler(
        daemons=2, heartbeat_interval=10.0,  # heartbeat out of the way
        crash_grace=2.0, max_attempts=3, handshake_timeout=5.0,
    ) as sched:
        future = sched.submit(stencil_ring(sleep=0.3))
        assert _wait_for_inflight(sched)
        # Kill one daemon: the retry re-places on the survivor; kill
        # that too while the re-run is in flight.
        sched.local_procs[0].kill()
        sched.local_procs[0].join()
        time.sleep(0.5)
        sched.local_procs[1].kill()
        sched.local_procs[1].join()
        with pytest.raises(ProcessFailedError):
            future.result(timeout=120)
    # close() drained the serve thread: the reservation must be gone.
    assert all(d.reserved == 0 for d in sched._daemons)


# ---------------------------------------------------------------------------
# Heartbeats: death detection and revival
# ---------------------------------------------------------------------------


def test_heartbeat_marks_killed_daemon_dead_and_wakes_queue():
    with FleetScheduler(
        daemons=2, heartbeat_interval=0.1, miss_threshold=2,
        ping_timeout=0.5,
    ) as sched:
        victim = sched.local_procs[0]
        victim.kill()
        victim.join()
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            states = sched.daemon_states()
            if sum(1 for d in states if d["alive"]) == 1:
                break
            time.sleep(0.05)
        else:
            pytest.fail("heartbeat never marked the killed daemon dead")
        # The fleet still serves on the survivor.
        assert_matches_reference(
            sched.submit(stencil_ring()).result(timeout=120)
        )
        assert sched.stats()["daemon_deaths"] >= 1


def test_heartbeat_updates_stats_snapshots():
    with FleetScheduler(daemons=1, heartbeat_interval=0.1) as sched:
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            state = sched.daemon_states()[0]
            if state["ranks_active"] is not None:
                break
            time.sleep(0.05)
        else:
            pytest.fail("heartbeat never delivered a stats snapshot")
        assert state["alive"] and state["misses"] == 0
