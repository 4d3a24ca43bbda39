"""Warm pooled dispatch: one control frame per rank with its channel
descriptors in-band, and program images resident in the worker.

Neither half may change what a run computes — every result here is
compared bitwise with a reference — so what the tests pin is the
mechanism: no ``multiprocessing.resource_sharer`` is ever started, no
descriptor accumulates over hundreds of runs, a body is unpickled once
per (worker, image) and never run by two ranks at once, and a worker
killed with a job's descriptors still in flight surfaces as an
attributed failure with every socket end released.
"""

import hashlib
import os
import resource
import signal
import socket
import threading
import time
from multiprocessing import resource_sharer

import numpy as np
import pytest

from tests.dist.test_pool import exchange_system, run_pair_equal
from repro.dist import closures, worker
from repro.dist.channels import EndpointSpec
from repro.dist.engine import MultiprocessEngine, WorkerCrashError
from repro.dist.fleet import FleetScheduler
from repro.dist.net.frames import FrameStream
from repro.dist.net.rendezvous import poll_stats
from repro.dist.pool import WorkerPool, _recv_frame, _send_frame
from repro.dist.serve import JobServer
from repro.dist.shm import live_segment_names
from repro.dist.worker import ResidentImages
from repro.errors import ProcessFailedError, TransportAbortError
from repro.runtime import ProcessSpec, System, ThreadedEngine


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


# -- (a) no resource sharer ---------------------------------------------------


def sharer_running():
    return resource_sharer._resource_sharer._listener is not None or any(
        "_serve" in t.name for t in threading.enumerate()
    )


@pytest.mark.parametrize(
    "start_method", ["fork", pytest.param("spawn", marks=pytest.mark.slow)]
)
def test_pooled_runs_and_serving_start_no_resource_sharer(start_method):
    if sharer_running():  # left behind by an unrelated test
        resource_sharer.stop(timeout=5.0)
    assert not sharer_running()
    fresh = MultiprocessEngine(start_method="fork").run(exchange_system())
    with MultiprocessEngine(start_method=start_method) as engine:
        for _ in range(50):
            result = engine.run(exchange_system())
        run_pair_equal(result, fresh)
    with JobServer(
        pool_size=4, max_inflight=4, start_method=start_method
    ) as server:
        futures = [server.submit(exchange_system()) for _ in range(12)]
        for fut in futures:
            run_pair_equal(fut.result(timeout=60), fresh)
    assert not sharer_running()


# -- (b) descriptors do not accumulate ----------------------------------------


def fd_count(pid):
    return len(os.listdir(f"/proc/{pid}/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_fd_counts_identical_after_run_5_and_run_200():
    system = exchange_system()
    with MultiprocessEngine(start_method="fork") as engine:
        for _ in range(5):
            engine.run(system)
        pids = [os.getpid()] + [s.proc.pid for s in engine._pool._slots]
        time.sleep(0.2)  # workers finish closing after they report done
        after_5 = [fd_count(pid) for pid in pids]
        for _ in range(195):
            engine.run(system)
        assert wait_until(
            lambda: [fd_count(pid) for pid in pids] == after_5
        ), ([fd_count(pid) for pid in pids], after_5)


# -- (c) + (e) one unpickle per (worker, image) -------------------------------


def digest_of(image):
    return hashlib.blake2b(bytes(image), digest_size=16).hexdigest()


@pytest.fixture
def image_loads(monkeypatch, tmp_path):
    """Every ``closures.loads`` call in this process and in workers
    forked from it, as ``digest_of(image) -> [pid, ...]``."""
    log = tmp_path / "loads.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real = closures.loads

    def logging_loads(data, *args, **kwargs):
        os.write(fd, f"{os.getpid()} {digest_of(data)}\n".encode())
        return real(data, *args, **kwargs)

    monkeypatch.setattr(closures, "loads", logging_loads)

    def loads_by_digest():
        out = {}
        for line in log.read_text().splitlines():
            pid, digest = line.split()
            out.setdefault(digest, []).append(int(pid))
        return out

    yield loads_by_digest
    os.close(fd)


def make_scaling_body(scale):
    def body(ctx):
        other = 1 - ctx.rank
        if ctx.store.get("boom"):
            raise ValueError("asked to fail")
        ctx.send(f"c{ctx.rank}", ctx.store["u"] * scale)
        ctx.store["ghost"] = ctx.recv(f"c{other}")
        return float(ctx.store["ghost"].sum())

    return body


def scaling_system(scales=(2.0, 3.0)):
    system = System(
        [
            ProcessSpec(
                r,
                make_scaling_body(scales[r]),
                store={"u": np.arange(64.0) + r},
            )
            for r in range(2)
        ]
    )
    for r in range(2):
        system.add_channel(f"c{r}", r, 1 - r)
    return system


def test_body_unpickled_once_per_worker_and_again_when_rebound(image_loads):
    system = scaling_system()
    reference = ThreadedEngine().run(system)
    with MultiprocessEngine(start_method="fork") as engine:
        for _ in range(10):
            run_pair_equal(engine.run(system), reference)
        workers = sorted(s.proc.pid for s in engine._pool._slots)
        old = [digest_of(i) for i in closures.body_images(system)]
        loads = image_loads()
        assert sorted(loads[old[0]] + loads[old[1]]) == workers

        system.processes[0].body = make_scaling_body(7.0)
        rebound = ThreadedEngine().run(system)
        for _ in range(10):
            run_pair_equal(engine.run(system), rebound)
        new = digest_of(closures.body_images(system)[0])
        loads = image_loads()
        assert new != old[0]
        assert len(loads[new]) == 1  # the rebound rank, once
        assert len(loads[old[0]]) == len(loads[old[1]]) == 1


def test_images_stay_resident_across_runs_of_different_widths(image_loads):
    # Checkin re-parks at the front in rank order: after a wider run,
    # ranks 0 and 1 land on the workers that already hold their bodies.
    system = scaling_system()
    reference = ThreadedEngine().run(system)
    with MultiprocessEngine(start_method="fork") as engine:
        engine.run(exchange_system(nprocs=3))
        for _ in range(5):
            run_pair_equal(engine.run(system), reference)
        assert engine._pool.spawned == 3
    loads = image_loads()
    for image in closures.body_images(system):
        assert len(loads[digest_of(image)]) == 1


def test_raising_body_is_dropped_and_next_run_identical(image_loads):
    system = scaling_system()
    reference = ThreadedEngine().run(system)
    digests = [digest_of(i) for i in closures.body_images(system)]
    with MultiprocessEngine(start_method="fork") as engine:
        run_pair_equal(engine.run(system), reference)
        system.processes[0].store["boom"] = True
        with pytest.raises(ProcessFailedError, match="asked to fail"):
            engine.run(system)
        del system.processes[0].store["boom"]
        for _ in range(3):
            run_pair_equal(engine.run(system), reference)
        assert engine._pool.spawned == 2  # a raise never costs a worker
    # The body that raised was not kept: its worker unpickled it anew,
    # once, and kept that one.
    assert len(image_loads()[digests[0]]) == 2


class TestResidentImages:
    def test_checkout_is_exclusive_and_checkin_keeps_both(self):
        image = closures.dumps(make_scaling_body(2.0))
        images = ResidentImages()
        first = images.checkout(b"d", image)
        second = images.checkout(b"d", image)  # first is still out
        assert first is not second
        images.checkin(b"d", first)
        images.checkin(b"d", second)
        assert images.stats() == {
            "images_resident": 2,
            "image_hits": 0,
            "image_misses": 2,
        }
        assert images.checkout(b"d", image) is second  # most recent first
        assert images.checkout(b"d", image) is first
        assert images.stats()["image_hits"] == 2

    def test_least_recently_run_goes_first_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(worker, "MAX_RESIDENT_IMAGES", 3)
        images = ResidentImages()
        image = closures.dumps(make_scaling_body(2.0))
        for name in (b"a", b"b", b"c", b"d"):
            images.checkin(name, images.checkout(name, image))
        assert images.stats()["images_resident"] == 3
        images.checkout(b"b", image)
        assert images.stats()["image_hits"] == 1
        images.checkout(b"a", image)  # evicted: unpickled again
        assert images.stats()["image_misses"] == 5


# -- (d) concurrent jobs of one System never share a body ---------------------


def make_guarded_body(hold):
    busy = []  # per unpickled instance, like a kernel's scratch
    scratch = np.zeros(64)

    def body(ctx):
        assert not busy, "one body instance run by two ranks at once"
        busy.append(ctx.rank)
        try:
            other = 1 - ctx.rank
            scratch[:] = ctx.store["u"]
            ctx.send(f"c{ctx.rank}", scratch * 2.0)
            time.sleep(hold)
            ctx.store["ghost"] = ctx.recv(f"c{other}") + scratch
            return float(ctx.store["ghost"].sum())
        finally:
            busy.pop()

    return body


def guarded_system(hold=0.15):
    # Two closures with equal images: both ranks carry one digest.
    system = System(
        [
            ProcessSpec(
                r, make_guarded_body(hold), store={"u": np.arange(64.0) + r}
            )
            for r in range(2)
        ]
    )
    for r in range(2):
        system.add_channel(f"c{r}", r, 1 - r)
    return system


def test_two_jobs_in_flight_on_one_daemon_never_share_a_body():
    system = guarded_system()
    images = closures.body_images(system)
    assert images[0] == images[1]
    reference = ThreadedEngine().run(system)
    with FleetScheduler(
        daemons=1,
        capacity=4,
        max_inflight=2,
        elastic=False,
        heartbeat_interval=0.2,
    ) as fleet:
        (address,) = fleet.daemon_addresses
        wave = [fleet.submit(system) for _ in range(2)]
        for fut in wave:
            run_pair_equal(fut.result(timeout=60), reference)
        # A rank reports ``done`` before the daemon checks its body
        # back in, so wait for the check-ins before reading stats.
        def checked_in():
            snap = poll_stats(address)
            return snap["images_resident"] == snap["image_misses"]

        assert wait_until(checked_in, timeout=2.0)
        stats = poll_stats(address)
        # Two ranks of one job always run together, so one digest
        # needed at least two instances; none was shared.
        assert stats["image_misses"] >= 2
        assert stats["image_hits"] + stats["image_misses"] == 4
        assert stats["images_resident"] == stats["image_misses"]
        run_pair_equal(fleet.submit(system).result(timeout=60), reference)
        after = poll_stats(address)
        assert after["image_hits"] == stats["image_hits"] + 2
        assert after["image_misses"] == stats["image_misses"]


def test_two_jobs_in_flight_on_one_jobserver_match_sequential():
    system = guarded_system()
    reference = ThreadedEngine().run(system)
    with JobServer(pool_size=4, max_inflight=2) as server:
        for _ in range(3):
            wave = [server.submit(system) for _ in range(2)]
            for fut in wave:
                run_pair_equal(fut.result(timeout=60), reference)
        records = server.job_stats()
        stats = server.stats()
    assert all(r.startup_s is not None and r.startup_s > 0 for r in records)
    assert all(r.startup_s <= r.service_s for r in records)
    assert stats["startup_ms_p50"] > 0
    assert stats["inflight_hwm"] == 2


# -- (f) a worker killed with descriptors in flight ---------------------------


def test_sigkill_with_fds_in_flight_releases_them():
    """A stopped worker cannot read its control socket, so the frame and
    its descriptors sit in the kernel; killing it must close them."""
    pool = WorkerPool(start_method="fork")
    try:
        (slot,) = pool.ensure(1)
        os.kill(slot.proc.pid, signal.SIGSTOP)
        writer, reader = socket.socketpair()
        child_conn, parent_conn = socket.socketpair()
        system = System([ProcessSpec(0, lambda ctx: None)])
        pool.dispatch(
            slot,
            system,
            0,
            child_conn,
            body=closures.body_payloads(system)[0],
            plan={},
            rest={},
            w_specs=[EndpointSpec("c", 0, 0, "w", writer)],
            r_specs=[],
            recv_timeout=None,
            observe=False,
            trace=False,
        )
        writer.close()
        child_conn.close()
        reader, parent_conn = FrameStream(reader), FrameStream(parent_conn)
        # The in-flight duplicates keep both streams open ...
        assert not reader.poll(0.2) and not parent_conn.poll(0)
        os.kill(slot.proc.pid, signal.SIGKILL)
        slot.proc.join(timeout=5.0)
        # ... and die with the worker's socket: both readers see the
        # writer's death (EOF without a goodbye).
        for conn in (reader, parent_conn):
            assert conn.poll(5.0)
            with pytest.raises(TransportAbortError):
                conn.recv_bytes()
            conn.close()
        assert pool.reap() == 1
    finally:
        pool.shutdown()
    assert live_segment_names() == frozenset()


def test_run_with_worker_killed_before_it_reads_its_job():
    with MultiprocessEngine(
        start_method="fork", crash_grace=2.0
    ) as engine:
        good = engine.run(exchange_system())
        pool = engine._pool
        real_checkout = pool.checkout

        def checkout_then_freeze(n):
            slots = real_checkout(n)
            pool.checkout = real_checkout
            victim = slots[1].proc
            os.kill(victim.pid, signal.SIGSTOP)
            threading.Timer(
                0.3, os.kill, (victim.pid, signal.SIGKILL)
            ).start()
            return slots

        pool.checkout = checkout_then_freeze
        with pytest.raises(ProcessFailedError) as failure:
            engine.run(exchange_system())
        assert failure.value.rank == 1
        assert isinstance(failure.value.original, WorkerCrashError)
        assert failure.value.original.exitcode == -signal.SIGKILL
        run_pair_equal(engine.run(exchange_system()), good)
        assert pool.spawned == 3
    assert live_segment_names() == frozenset()


# -- (g) more descriptors than one message may carry --------------------------


def test_frame_with_600_descriptors_arrives_whole():
    a, b = socket.socketpair()
    socks = [end for _ in range(300) for end in socket.socketpair()]
    try:
        _send_frame(a, ("job", {"conns": socks, "pad": b"x" * 100_000}))
        kind, job = _recv_frame(b)
        assert kind == "job" and len(job["conns"]) == 600
        assert len(job["pad"]) == 100_000
        # Every received end is a stream over a duplicate of the end
        # sent in its place.
        assert all(isinstance(c, FrameStream) for c in job["conns"])
        for i in range(0, 600, 2):
            job["conns"][i + 1].send_bytes(b"%d" % i)
            assert FrameStream(socks[i]).recv_bytes() == b"%d" % i
        _send_frame(a, ("stop",))
        assert _recv_frame(b) == ("stop",)
        a.close()
        with pytest.raises(EOFError):
            _recv_frame(b)
    finally:
        for conn in (*socks, *job["conns"]):
            conn.close()
        b.close()


def test_rank_with_more_than_253_channel_ends_dispatches():
    nchan = 260
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 4 * nchan + 256:
        pytest.skip(f"RLIMIT_NOFILE {soft} too low for {nchan} channels")

    def body(ctx):
        if ctx.rank == 0:
            for i in range(nchan):
                ctx.send(f"c{i}", float(i))
            return 0.0
        return sum(ctx.recv(f"c{i}") for i in range(nchan))

    system = System([ProcessSpec(r, body) for r in range(2)])
    for i in range(nchan):
        system.add_channel(f"c{i}", 0, 1)
    with MultiprocessEngine(start_method="fork") as engine:
        for _ in range(2):
            result = engine.run(system)
            assert result.returns == [0.0, float(sum(range(nchan)))]
    assert live_segment_names() == frozenset()
