"""JobServer: concurrent serving, backpressure, teardown hygiene.

Serving interleaves many jobs on one pool; by the determinacy theorem
each job's result must be exactly what a dedicated engine run produces
— asserted bitwise here.  The rest pins the operational contract:
``max_inflight`` backpressure (``submit`` blocks at the bound), failed
and crashed jobs staying contained to their own future, and a close —
even mid-flight — leaving no shared segment and no worker process
behind.
"""

import multiprocessing
import threading
import time

import pytest

from tests.dist.test_pool import exchange_system, run_pair_equal
from repro.dist.engine import MultiprocessEngine, WorkerCrashError
from repro.dist.serve import JobServer, ServerClosedError
from repro.dist.shm import live_segment_names
from repro.errors import ProcessFailedError
from repro.explore import apply_faults, parse_fault_plan
from repro.explore.fixtures import prodcons_system
from repro.runtime import ProcessSpec, System, ThreadedEngine, make_engine


def sleeper_system(delay=0.3, nprocs=1):
    def body(ctx):
        time.sleep(delay)
        return ctx.rank

    return System([ProcessSpec(r, body) for r in range(nprocs)])


def failing_system():
    def body(ctx):
        raise ValueError("job body boom")

    return System([ProcessSpec(0, body)])


def crashing_system():
    def body(ctx):
        import os

        os.kill(os.getpid(), 9)

    return System([ProcessSpec(0, body)])


class TestServing:
    def test_concurrent_jobs_bitwise_identical_to_fresh_engine(self):
        seeds = [
            MultiprocessEngine(start_method="fork").run(
                exchange_system(2, 64, float(i))
            )
            for i in range(3)
        ]
        with JobServer(pool_size=4, max_inflight=4) as server:
            futs = [
                server.submit(exchange_system(2, 64, float(i % 3)))
                for i in range(9)
            ]
            for i, fut in enumerate(futs):
                run_pair_equal(fut.result(timeout=60), seeds[i % 3])
            stats = server.stats()
        assert stats["jobs_done"] == 9
        assert stats["jobs_failed"] == 0
        assert stats["inflight_hwm"] > 1  # genuinely concurrent admission
        assert live_segment_names() == frozenset()

    def test_jobs_overlap_on_the_pool(self):
        # Two one-rank sleepers on two slots must co-run, by the
        # server's own record (no wall-clock bound): both were in
        # flight at once, and their dispatch-to-done intervals
        # intersect.
        with JobServer(pool_size=2, max_inflight=2) as server:
            futs = [server.submit(sleeper_system(0.4)) for _ in range(2)]
            for fut in futs:
                fut.result(timeout=60)
            first, second = server.job_stats()
            stats = server.stats()
        assert stats["inflight_hwm"] == 2
        assert max(first.t_dispatch, second.t_dispatch) < min(
            first.t_done, second.t_done
        )

    def test_submit_blocks_at_the_bound(self):
        with JobServer(pool_size=1, max_inflight=1) as server:
            server.submit(sleeper_system(0.3))
            t0 = time.perf_counter()
            fut = server.submit(sleeper_system(0.0))  # blocks for slot 1
            assert time.perf_counter() - t0 > 0.1
            assert fut.result(timeout=60).returns == [0]

    def test_failed_job_contained_to_its_future(self):
        with JobServer(pool_size=2, max_inflight=2) as server:
            bad = server.submit(failing_system())
            good = server.submit(exchange_system(2, 64, 7.0))
            with pytest.raises(ProcessFailedError, match="job body boom"):
                bad.result(timeout=60)
            assert len(good.result(timeout=60).returns) == 2
            stats = server.stats()
        assert stats["jobs_failed"] == 1
        assert stats["jobs_done"] == 2

    def test_crashed_worker_contained_and_pool_recovers(self):
        with JobServer(pool_size=2, max_inflight=2) as server:
            crash = server.submit(crashing_system())
            with pytest.raises(ProcessFailedError):
                crash.result(timeout=60)
            # The dead slot is discarded at checkin; the next job gets
            # a respawned worker and computes normally.
            seed = MultiprocessEngine(start_method="fork").run(
                exchange_system(2, 64, 2.0)
            )
            run_pair_equal(
                server.submit(exchange_system(2, 64, 2.0)).result(timeout=60),
                seed,
            )

    def test_worker_killed_between_checkout_and_dispatch(self):
        with JobServer(pool_size=2, max_inflight=2) as server:
            seed = server.submit(exchange_system(2, 64, 2.0)).result(
                timeout=60
            )
            pool = server.pool
            real_checkout = pool.checkout

            def checkout_then_kill(n):
                slots = real_checkout(n)
                pool.checkout = real_checkout
                slots[1].proc.kill()
                slots[1].proc.join()
                return slots

            pool.checkout = checkout_then_kill
            doomed = server.submit(exchange_system(2, 64, 2.0))
            with pytest.raises(ProcessFailedError) as failure:
                doomed.result(timeout=60)
            assert failure.value.rank == 1
            assert isinstance(failure.value.original, WorkerCrashError)
            # Contained to that future: the dead slot went at checkin,
            # the next job runs on a respawned worker.
            run_pair_equal(
                server.submit(exchange_system(2, 64, 2.0)).result(timeout=60),
                seed,
            )
            assert server.stats()["jobs_failed"] == 1
            assert pool.spawned == 3
        assert live_segment_names() == frozenset()

    def test_injected_fault_provenance_same_as_the_engine(self):
        # One tail for both front ends: the planted kill comes back
        # with its step and fault id, not as a bare (rank, exc).
        system = apply_faults(prodcons_system(), parse_fault_plan("kill:0@2"))
        failures = []
        with JobServer(pool_size=2) as server:
            with pytest.raises(ProcessFailedError) as failure:
                server.submit(system).result(timeout=60)
            failures.append(failure.value)
        engine = make_engine("multiprocess", start_method="fork")
        try:
            with pytest.raises(ProcessFailedError) as failure:
                engine.run(system)
            failures.append(failure.value)
        finally:
            engine.close()
        for err in failures:
            assert (err.rank, err.step, err.fault_id) == (0, 2, "kill:0@2")

    def test_submit_after_close_raises(self):
        server = JobServer(pool_size=1)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(sleeper_system(0.0))
        server.close()  # idempotent

    def test_oversized_job_rejected_up_front(self):
        with JobServer(pool_size=2) as server:
            with pytest.raises(ValueError, match="schedules"):
                server.submit(exchange_system(nprocs=4))

    def test_max_inflight_below_one_raises_before_a_worker_starts(self):
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(ValueError, match="max_inflight"):
            JobServer(pool_size=1, max_inflight=0)
        assert {p.pid for p in multiprocessing.active_children()} == before


class TestMidFlightClose:
    def test_close_mid_flight_leaks_nothing(self):
        # Regression: shutdown racing queued + running jobs must leave
        # no shm segment and no worker process behind.
        server = JobServer(pool_size=2, max_inflight=6)
        running = [server.submit(sleeper_system(0.4)) for _ in range(2)]
        queued = [server.submit(sleeper_system(0.0)) for _ in range(4)]
        procs = [s.proc for s in server.pool._lent + server.pool._slots]
        server.close(drain=False)
        for fut in running:
            assert fut.result(timeout=60).returns == [0]
        for fut in queued:
            assert fut.cancelled() or isinstance(
                fut.exception(timeout=60), ServerClosedError
            )
        assert live_segment_names() == frozenset()
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()
        assert len(server.pool) == 0

    def test_close_drain_completes_everything(self):
        server = JobServer(pool_size=1, max_inflight=4)
        futs = [server.submit(sleeper_system(0.05)) for _ in range(4)]
        server.close(drain=True)
        assert [f.result(timeout=60).returns for f in futs] == [[0]] * 4
        assert live_segment_names() == frozenset()

    def test_concurrent_closes_race_safely(self):
        server = JobServer(pool_size=2, max_inflight=4)
        for _ in range(3):
            server.submit(sleeper_system(0.1))
        threads = [
            threading.Thread(target=server.close) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert live_segment_names() == frozenset()
        assert len(server.pool) == 0

