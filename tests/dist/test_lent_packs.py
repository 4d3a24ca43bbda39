"""A pooled result is its run pack — counted, not timed.

Readback copies no variable out of shared memory: a process-engine
result's variables are views into the run packs, which are *lent* to it
and go back to the arena's free list once the last view died.  These
tests pin the lending down: what a held result costs the next run, that
dropped results cost nothing, that nothing aliases, that a failed run
lends nothing, and that a result may outlive the pool that made it
without leaking a segment or a descriptor.
"""

import gc
import os

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
from repro.dist.engine import MultiprocessEngine, run_on_pool
from repro.dist.pool import WorkerPool
from repro.dist.serve import JobServer
from repro.dist.shm import live_segment_names
from repro.errors import ProcessFailedError
from repro.runtime import ProcessSpec, System
from repro.util import bitwise_equal_arrays


def version_a(n=9, steps=2, center=None):
    config = FDTDConfig(
        grid=YeeGrid(shape=(n, n, n)),
        steps=steps,
        initial=[
            GaussianBallInitial("ez", center or (n // 2,) * 3, radius=2.0)
        ],
    )
    return config, build_parallel_fdtd(config, (2, 1, 1), version="A")


def assert_matches_sequential(config, par, result):
    reference = VersionA(config).run().fields.components()
    fields = par.host_fields(result.stores)
    for comp in COMPONENTS:
        assert bitwise_equal_arrays(fields[comp], reference[comp]), comp


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def our_dev_shm() -> list[str]:
    prefix = f"repro_{os.getpid():x}_"
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


# ---------------------------------------------------------------------------
# What a held result costs, and what a dropped one does not
# ---------------------------------------------------------------------------


def test_holding_one_result_makes_the_next_run_create_exactly_its_run_packs():
    config, par = version_a()
    system = par.to_parallel()
    with WorkerPool("fork") as pool:
        arena = pool.arena
        held = run_on_pool(pool, system)
        created = arena.created
        nxt = run_on_pool(pool, system)  # `held` still views its packs
        assert arena.created - created == system.nprocs
        assert len(arena) == 3 * system.nprocs  # resident, held, nxt
        assert_matches_sequential(config, par, held)
        assert_matches_sequential(config, par, nxt)
        del held, nxt
        assert len(arena) == system.nprocs  # the resident packs
    assert live_segment_names() == frozenset()


def test_ten_dropped_results_create_no_segment():
    config, par = version_a()
    system = par.to_parallel()
    with WorkerPool("fork") as pool:
        arena = pool.arena
        run_on_pool(pool, system)
        created = arena.created
        for _ in range(10):
            result = run_on_pool(pool, system)
            assert_matches_sequential(config, par, result)
            del result
        assert arena.created == created
        assert arena.recycled >= 10 * system.nprocs
    assert live_segment_names() == frozenset()


# ---------------------------------------------------------------------------
# Nothing aliases: a held result's pack is not handed to the next run
# ---------------------------------------------------------------------------


def test_poisoning_a_held_result_does_not_reach_the_next_run():
    config, par = version_a()
    system = par.to_parallel()
    with WorkerPool("fork") as pool:
        held = run_on_pool(pool, system)
        poisoned = [
            arr
            for store in held.stores
            for arr in store.values()
            if isinstance(arr, np.ndarray) and arr.flags.writeable
        ]
        assert len(poisoned) >= 6 * system.nprocs  # every rank's fields
        for arr in poisoned:
            arr[...] = np.nan

        second = run_on_pool(pool, system)
        assert_matches_sequential(config, par, second)
        assert all(np.isnan(arr).all() for arr in poisoned)
    assert live_segment_names() == frozenset()


def test_jobserver_with_held_futures_returns_only_correct_results():
    problems = [version_a(n=11, steps=3, center=(c, 5, 5)) for c in (3, 5, 7)]
    systems = [par.to_parallel() for _config, par in problems]
    with JobServer(pool_size=6, max_inflight=2) as server:
        picks = [i % len(problems) for i in range(8)]
        futures = [server.submit(systems[i]) for i in picks]
        for i, future in zip(picks, futures):
            config, par = problems[i]
            assert_matches_sequential(config, par, future.result(timeout=60))
        assert server.stats()["inflight_hwm"] == 2
        # Every result still held: none of their packs was reused.
        arena = server.pool.arena
        assert len(arena) == 3 * len(systems) + 3 * len(futures)
        for i, future in zip(picks, futures):
            config, par = problems[i]
            assert_matches_sequential(config, par, future.result())
    assert live_segment_names() == frozenset()


# ---------------------------------------------------------------------------
# A failed run lends nothing
# ---------------------------------------------------------------------------


def test_a_failed_run_lends_nothing():
    def body(ctx):
        ctx.store["v"][...] = 1.0
        if ctx.store["fail"]:
            raise ValueError("boom")

    const = np.arange(512.0)
    const.flags.writeable = False
    store = {"c": const, "v": np.zeros(512), "fail": 1}
    system = System([ProcessSpec(0, body, store=store)])
    with WorkerPool("fork") as pool:
        arena = pool.arena
        with pytest.raises(ProcessFailedError) as info:
            run_on_pool(pool, system)
        # The exception (and its traceback) is alive; no pack is lent.
        assert isinstance(info.value.original, ValueError)
        assert len(arena) == 1  # the resident pack
        created = arena.created

        store["fail"] = 0
        result = run_on_pool(pool, system)
        assert arena.created == created  # the failed run's pack, reused
        assert (result.stores[0]["v"] == 1.0).all()
    assert live_segment_names() == frozenset()


# ---------------------------------------------------------------------------
# A result that outlives its pool
# ---------------------------------------------------------------------------


def warm_up():
    """One run, dropped: what the first run of a process opens for good
    (the resource tracker's pipe) is open before the count is taken."""
    config, par = version_a(n=7, steps=1)
    MultiprocessEngine(start_method="fork").run(par.to_parallel())
    gc.collect()


def assert_unlinked_yet_readable(config, par, result):
    assert live_segment_names() == frozenset()  # unlinked at shutdown ...
    assert our_dev_shm() == []
    assert_matches_sequential(config, par, result)  # ... still mapped


def assert_closed_with_the_last_view(fds):
    gc.collect()
    assert open_fds() == fds
    assert live_segment_names() == frozenset()
    assert our_dev_shm() == []


def test_a_result_outlives_an_engine_dropped_while_it_is_held():
    warm_up()
    config, par = version_a()
    system = par.to_parallel()
    fds = open_fds()
    result = MultiprocessEngine(start_method="fork").run(system)
    assert open_fds() > fds  # the lent packs' descriptors
    assert_unlinked_yet_readable(config, par, result)
    del result
    assert_closed_with_the_last_view(fds)


def test_a_result_outlives_a_pooled_engine_closed_while_it_is_held():
    warm_up()
    config, par = version_a()
    system = par.to_parallel()
    fds = open_fds()
    engine = MultiprocessEngine(start_method="fork")
    engine.run(system)  # a dropped result: its packs go back
    result = engine.run(system)
    engine.close()
    del engine
    assert_unlinked_yet_readable(config, par, result)
    del result
    assert_closed_with_the_last_view(fds)
