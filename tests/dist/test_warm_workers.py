"""A warm pool worker maps each segment once and starts on arrival.

Two properties of the pool's rank side, read from outside — from the
workers' ``/proc`` files and from the parent's arena — never timed:

* a worker keeps every shared segment it has mapped, so a warm run maps
  nothing, and it holds mappings, not descriptors;
* a rank runs its body as soon as it is built (there is no start
  barrier), so when setup fails the ranks already dispatched are
  *running*: the run must wait for them before it hands their workers
  back or recycles their packs.
"""

import collections
import os
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
from repro.dist.engine import run_on_pool
from repro.dist.pool import WorkerCrashError, WorkerPool
from repro.dist.shm import live_segment_names
from repro.errors import ProcessFailedError, wrap_process_failure
from repro.runtime import ProcessSpec, System
from repro.util import bitwise_equal_arrays


def version_a(n, steps):
    config = FDTDConfig(
        grid=YeeGrid(shape=(n, n, n)),
        steps=steps,
        initial=[GaussianBallInitial("ez", (n // 2,) * 3, radius=2.0)],
    )
    return config, build_parallel_fdtd(config, (2, 1, 1), version="A")


def segment_maps(pid: int) -> list[tuple[str, str]]:
    """``(segment, address range)`` of each mapping of a ``repro_*``
    segment that ``pid`` holds."""
    with open(f"/proc/{pid}/maps") as maps:
        fields = [line.split() for line in maps if "/dev/shm/repro_" in line]
    return [(os.path.basename(f[5]), f[0]) for f in fields]


def fds(pid: int) -> list[str]:
    """What each descriptor of ``pid`` points at."""
    targets = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            targets.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except FileNotFoundError:  # closed while being listed
            pass
    return targets


def parked_fd_count(pid: int) -> int:
    """The descriptor count of a worker back at its control socket: it
    closes its job's sockets just after reporting, so wait until the
    count has stopped falling."""
    count = len(fds(pid))
    for _ in range(100):
        time.sleep(0.05)
        now = len(fds(pid))
        if now == count:
            break
        count = now
    return count


def our_dev_shm() -> list[str]:
    prefix = f"repro_{os.getpid():x}_"
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


# ---------------------------------------------------------------------------
# Kept mappings
# ---------------------------------------------------------------------------


def test_warm_workers_map_each_segment_once_and_hold_no_descriptor():
    problems = [version_a(9, 2), version_a(11, 3), version_a(13, 2)]
    systems = [par.to_parallel() for _config, par in problems]
    references = [VersionA(config).run().fields.components() for config, _ in problems]
    with WorkerPool("fork") as pool:
        # Forked before any segment exists: no worker inherits one of
        # the parent's mappings, so every mapping a worker holds is its
        # own.
        pids = [slot.proc.pid for slot in pool.ensure(3)]
        kept = {pid: {} for pid in pids}  # segment -> where it is mapped
        fds_after_first = None
        for i in range(20):
            k = i % len(problems)
            result = run_on_pool(pool, systems[k])
            fields = problems[k][1].host_fields(result.stores)
            for comp in COMPONENTS:
                assert bitwise_equal_arrays(fields[comp], references[k][comp])
            del result, fields  # its packs go back to the free list
            for pid in pids:
                maps = segment_maps(pid)
                names = collections.Counter(name for name, _where in maps)
                assert names and max(names.values()) == 1, maps
                assert set(names) <= live_segment_names()
                # Still mapped where a former run mapped it: never again.
                for name, where in maps:
                    assert kept[pid].setdefault(name, where) == where
                assert not [t for t in fds(pid) if t.startswith("/dev/shm/")]
            if fds_after_first is None:
                fds_after_first = [parked_fd_count(pid) for pid in pids]
        assert [parked_fd_count(pid) for pid in pids] == fds_after_first
        assert pool.spawned == 3
    assert our_dev_shm() == []
    assert live_segment_names() == frozenset()


# ---------------------------------------------------------------------------
# Setup failures without a start barrier
# ---------------------------------------------------------------------------

N = 4096  # floats: every rank's "v" lies in its run pack


def slow_writer(ctx):
    """Writes its run pack for a while and notes when it stopped: a rank
    that depends on nobody, so a failed setup elsewhere does not stop
    it."""
    v = ctx.store["v"]
    for k in range(10):
        v[...] = np.arange(N) * float(k)
        time.sleep(0.05)
    with open(ctx.store["mark"], "w") as mark:
        mark.write(repr(time.monotonic()))
    return float(v.sum())


def ping(ctx):
    ctx.send("c", ctx.store["v"] + 1.0)
    ctx.store["v"] = ctx.recv("d")
    return float(ctx.store["v"].sum())


def pong(ctx):
    got = ctx.recv("c")
    ctx.send("d", got * 2.0)
    ctx.store["v"][...] = got
    return float(got.sum())


def three_ranks(mark: str) -> System:
    stores = [{"v": np.full(N, float(r)), "mark": mark} for r in range(3)]
    system = System(
        [
            ProcessSpec(r, body, store=stores[r])
            for r, body in enumerate((slow_writer, ping, pong))
        ]
    )
    system.add_channel("c", 1, 2)
    system.add_channel("d", 2, 1)
    return system


def expected_stores() -> list[np.ndarray]:
    return [np.arange(N) * 9.0, (np.full(N, 1.0) + 1.0) * 2.0, np.full(N, 2.0)]


def missing_store(victim):
    """Rank ``victim``'s plan names a segment that does not exist: it
    fails while building its store, after rank 0 was dispatched and
    started.  Its peer on the ping-pong fails too, only echoing it (a
    receive from a dead writer), and is the lower rank when ``victim``
    is 2."""

    def inject(pool, real_dispatch):
        def dispatch(slot, system, rank, result_conn, **job):
            if rank == victim:
                ghost = ("repro_no_such_segment", 0, "<f8", (8,), False)
                job["plan"] = {**job["plan"], "ghost": ghost}
            real_dispatch(slot, system, rank, result_conn, **job)

        return dispatch, victim, FileNotFoundError

    return inject


def failing_dispatch(pool, real_dispatch):
    """The last rank's dispatch raises — what it raises for a worker
    found dead — after ranks 0 and 1 were dispatched and started."""

    def dispatch(slot, system, rank, result_conn, **job):
        if rank == system.nprocs - 1:
            raise wrap_process_failure(rank, WorkerCrashError(rank, None))
        real_dispatch(slot, system, rank, result_conn, **job)

    return dispatch, 2, WorkerCrashError


@pytest.mark.parametrize(
    "inject",
    [missing_store(1), missing_store(2), failing_dispatch],
    ids=["store-rank1", "store-rank2", "dispatch"],
)
def test_a_failed_setup_waits_for_the_ranks_it_started(inject, tmp_path):
    mark = tmp_path / "rank0-finished"
    system = three_ranks(str(mark))
    with WorkerPool("fork") as pool:
        arena = pool.arena
        good = run_on_pool(pool, system)
        expected = expected_stores()
        for store, want in zip(good.stores, expected):
            assert bitwise_equal_arrays(store["v"], want)
        del good
        mark.unlink()
        spawned = pool.spawned

        # When the workers go back and the packs are parked, measured
        # against when the running rank 0 stopped writing its pack.
        events = []
        real_checkin, real_recycle = pool.checkin, arena.recycle

        def checkin(slots):
            events.append(("checkin", time.monotonic(), arena.recycled))
            real_checkin(slots)

        def recycle(names=None):
            events.append(("recycle", time.monotonic(), arena.recycled))
            real_recycle(names)

        real_dispatch = pool.dispatch
        injected, root, cause = inject(pool, real_dispatch)

        def dispatch(*args, **job):
            events.append(("dispatch", time.monotonic(), arena.recycled))
            injected(*args, **job)

        pool.dispatch, pool.checkin, arena.recycle = dispatch, checkin, recycle
        t0 = time.perf_counter()
        with pytest.raises(ProcessFailedError) as failure:
            run_on_pool(pool, system, crash_grace=30.0)
        # The peers unwound through the EOF cascade, not crash_grace.
        assert time.perf_counter() - t0 < 10.0
        pool.dispatch, pool.checkin = real_dispatch, real_checkin
        arena.recycle = real_recycle

        assert failure.value.rank == root
        assert isinstance(failure.value.original, cause)
        assert mark.exists(), "rank 0 was still running when the run returned"
        finished = float(mark.read_text())
        kinds = [kind for kind, _t, _n in events]
        assert kinds == ["dispatch"] * 3 + ["checkin", "recycle"]
        recycled = events[0][2]  # after this run's packs were shared
        for _kind, when, seen in events[3:]:
            assert when >= finished  # rank 0 was terminal by then
            assert seen == recycled  # and nothing reused a pack before
        assert pool.spawned == spawned  # nobody had to be terminated

        # Every worker came back idle: the same pool, the same workers,
        # a bitwise-correct run.
        again = run_on_pool(pool, system)
        for store, want in zip(again.stores, expected):
            assert bitwise_equal_arrays(store["v"], want)
        assert arena.recycled > recycled
        assert pool.spawned == spawned
        del again
    assert live_segment_names() == frozenset()
