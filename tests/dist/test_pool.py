"""Persistent worker pool: reuse, crash recovery, shm hygiene.

The pool changes *how* ranks get an OS process (park-and-redispatch
instead of boot-per-run) but must not change *what* a run computes —
every pooled run must be bitwise identical to a fresh-engine run, across
repeated dispatches, worker crashes, and system-shape changes.
"""

import gc
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.dist.engine import MultiprocessEngine, WorkerCrashError
from repro.dist.pool import WorkerPool
from repro.dist.shm import live_segment_names
from repro.errors import ProcessFailedError
from repro.cli import main
from repro.runtime import ENGINE_NAMES, ProcessSpec, System, make_engine
from repro.util import bitwise_equal_arrays


def exchange_system(nprocs=2, n=64, mark=1.0):
    """A ring exchange with stores big enough to live in shared memory."""

    def body(ctx):
        right = (ctx.rank + 1) % ctx.nprocs
        left = (ctx.rank - 1) % ctx.nprocs
        ctx.send(f"r{ctx.rank}", ctx.store["u"] * 2.0)
        ctx.store["ghost"] = ctx.recv(f"r{left}")
        return float(ctx.store["ghost"].sum()) + right

    system = System(
        [
            ProcessSpec(
                r, body, store={"u": np.full(n, mark + r, dtype=float)}
            )
            for r in range(nprocs)
        ]
    )
    for r in range(nprocs):
        system.add_channel(f"r{r}", r, (r + 1) % nprocs)
    return system


def run_pair_equal(res_a, res_b):
    assert res_a.returns == res_b.returns
    for sa, sb in zip(res_a.stores, res_b.stores):
        assert set(sa) == set(sb)
        for key in sa:
            assert bitwise_equal_arrays(np.asarray(sa[key]), np.asarray(sb[key]))


class TestPooledRuns:
    def test_three_pooled_runs_bitwise_identical_to_fresh(self):
        with MultiprocessEngine(start_method="fork") as engine:
            fresh = engine.run(exchange_system())
        with MultiprocessEngine(start_method="fork") as engine:
            for _ in range(3):
                run_pair_equal(engine.run(exchange_system()), fresh)
            assert engine._pool.spawned == 2  # booted once, reused twice

    def test_pool_grows_across_system_shapes(self):
        with MultiprocessEngine(start_method="fork") as engine:
            small = engine.run(exchange_system(nprocs=2))
            big = engine.run(exchange_system(nprocs=4))
            assert len(engine._pool) == 4
            again = engine.run(exchange_system(nprocs=2))
            run_pair_equal(small, again)
            assert len(big.returns) == 4

    @pytest.mark.slow
    def test_pool_under_spawn(self):
        with MultiprocessEngine(start_method="spawn") as engine:
            first = engine.run(exchange_system())
            second = engine.run(exchange_system())
            run_pair_equal(first, second)


class TestCrashRecovery:
    def test_hard_crash_is_reported_and_worker_respawned(self):
        def crasher(ctx):
            if ctx.rank == 0:
                os._exit(17)
            ctx.send(f"r{ctx.rank}", 1.0)
            return ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")

        system = System([ProcessSpec(r, crasher) for r in range(2)])
        for r in range(2):
            system.add_channel(f"r{r}", r, (r + 1) % 2)

        with MultiprocessEngine(
            start_method="fork", crash_grace=2.0
        ) as engine:
            good = engine.run(exchange_system())
            with pytest.raises(ProcessFailedError):
                engine.run(system)
            # The dead slot is reaped; the next run respawns it.
            assert len(engine._pool) < 2
            run_pair_equal(engine.run(exchange_system()), good)
            assert engine._pool.spawned == 3

    def test_worker_killed_between_ensure_and_dispatch(self):
        with MultiprocessEngine(start_method="fork") as engine:
            good = engine.run(exchange_system())
            pool = engine._pool
            real_checkout = pool.checkout

            def checkout_then_kill(n):
                slots = real_checkout(n)
                pool.checkout = real_checkout
                slots[1].proc.kill()
                slots[1].proc.join()
                return slots

            pool.checkout = checkout_then_kill
            # Rank 0 is already dispatched when rank 1's write fails.
            with pytest.raises(ProcessFailedError) as failure:
                engine.run(exchange_system())
            assert failure.value.rank == 1
            assert isinstance(failure.value.original, WorkerCrashError)
            assert failure.value.original.exitcode == -signal.SIGKILL
            # The dead slot is reaped, rank 0's worker parked again.
            assert len(pool) == 1
            run_pair_equal(engine.run(exchange_system()), good)
            assert pool.spawned == 3
        assert live_segment_names() == frozenset()

    def test_body_exception_does_not_kill_workers(self):
        def raiser(ctx):
            raise ValueError("body failure")

        bad = System([ProcessSpec(r, raiser) for r in range(2)])
        with MultiprocessEngine(start_method="fork") as engine:
            good = engine.run(exchange_system())
            with pytest.raises(ProcessFailedError):
                engine.run(bad)
            # A Python-level failure is reported over the result pipe;
            # the parked workers survive and are reused.
            run_pair_equal(engine.run(exchange_system()), good)
            assert engine._pool.spawned == 2


class TestShmHygiene:
    def test_no_segment_leaks_after_pool_shutdown(self):
        engine = MultiprocessEngine(start_method="fork")
        for _ in range(3):
            engine.run(exchange_system())
        assert live_segment_names() != frozenset()  # recycled, still owned
        engine.close()
        assert live_segment_names() == frozenset()

    def test_segments_recycled_between_runs(self):
        with MultiprocessEngine(start_method="fork") as engine:
            engine.run(exchange_system())
            before = engine._pool.arena.recycled
            engine.run(exchange_system())  # same shapes: all reused
            assert engine._pool.arena.recycled > before

    def test_close_is_idempotent(self):
        engine = MultiprocessEngine(start_method="fork")
        engine.run(exchange_system())
        engine.close()
        engine.close()
        assert live_segment_names() == frozenset()


def child_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


class TestOneLifecycle:
    """The engine builds its pool on the first run, keeps it for every
    later one, and releases it on close or when it is collected."""

    def test_two_runs_on_a_named_engine_start_workers_once(self):
        engine = make_engine("multiprocess", start_method="fork")
        try:
            first = engine.run(exchange_system())
            spawned = engine._pool.spawned
            assert spawned == 2
            run_pair_equal(engine.run(exchange_system()), first)
            assert engine._pool.spawned == spawned
        finally:
            engine.close()

    def test_a_dropped_engine_leaves_no_worker_and_no_segment(self):
        before = child_pids()
        engine = MultiprocessEngine(start_method="fork")
        engine.run(exchange_system())
        workers = [s.proc for s in engine._pool._slots]
        assert len(workers) == 2 and all(p.is_alive() for p in workers)
        assert live_segment_names() != frozenset()
        del engine  # never closed
        gc.collect()
        assert not any(p.is_alive() for p in workers)
        assert child_pids() == before
        assert live_segment_names() == frozenset()

    def test_the_suites_old_name_is_a_spelling_of_multiprocess(self, capsys):
        assert "multiprocess+pool" not in ENGINE_NAMES
        engine = make_engine("multiprocess+pool", start_method="fork")
        try:
            assert type(engine) is MultiprocessEngine
            assert len(engine.run(exchange_system()).returns) == 2
        finally:
            engine.close()
        assert main(["e1", "--engine", "multiprocess+pool"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_cli_engine_by_name_leaks_nothing(self, name):
        # what `python -m repro e1 --engine NAME` builds, runs and closes
        from repro.cli import _PARSER, _build_run

        args = _PARSER.parse_args(["e1", "--pshape", "2x1x1", "--engine", name])
        before = child_pids(), live_segment_names()
        for _ in range(2):
            with _build_run(args, []) as (pars, engine):
                assert len(engine.run(pars[0].to_parallel()).stores) == 3
            gc.collect()
            assert (child_pids(), live_segment_names()) == before


class TestWorkerPoolDirect:
    def test_ensure_and_reap(self):
        pool = WorkerPool(start_method="fork")
        try:
            slots = pool.ensure(2)
            assert len(slots) == 2 and len(pool) == 2
            slots[0].proc.terminate()
            slots[0].proc.join()
            assert pool.reap() == 1
            assert len(pool.ensure(2)) == 2
            assert pool.spawned == 3
        finally:
            pool.shutdown()

    def test_shutdown_joins_workers(self):
        pool = WorkerPool(start_method="fork")
        procs = [slot.proc for slot in pool.ensure(2)]
        pool.shutdown()
        assert all(not p.is_alive() for p in procs)
        assert live_segment_names() == frozenset()

