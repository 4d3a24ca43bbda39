"""Constants cross once and stores cross as packs — counted, not timed.

A read-only array in an initial store is a constant.  On a pool its
rank's constants lie in one *resident pack*, written the first time the
arena sees those arrays and alive as long as they are; its variables in
one *run pack* per run.  These tests count segments, bytes and attaches
in the arena and in the workers; none of them measures time.
"""

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.fdtd import (
    COMPONENTS,
    FDTDConfig,
    GaussianBallInitial,
    VersionA,
    YeeGrid,
    build_parallel_fdtd,
)
from repro.dist.engine import run_on_pool
from repro.dist.pool import WorkerPool
from repro.dist.serve import JobServer
from repro.dist.shm import (
    BY_VALUE_CONSTANT,
    DEFAULT_THRESHOLD,
    PACK_ALIGN,
    SharedStoreArena,
    attach_store,
    by_value_constants,
    flush_store,
    live_segment_names,
)
from repro.errors import ProcessFailedError
from repro.runtime import ProcessSpec, System, make_engine
from repro.util import bitwise_equal_arrays, is_constant


def version_a(n=9, steps=2, center=None):
    config = FDTDConfig(
        grid=YeeGrid(shape=(n, n, n)),
        steps=steps,
        initial=[
            GaussianBallInitial("ez", center or (n // 2,) * 3, radius=2.0)
        ],
    )
    return config, build_parallel_fdtd(config, (2, 1, 1), version="A")


def constant_keys(store):
    return [k for k, v in store.items() if is_constant(v)]


def constant_nbytes(system):
    return sum(
        spec.store[k].nbytes
        for spec in system.processes
        for k in constant_keys(spec.store)
    )


def assert_matches_sequential(config, par, result):
    reference = VersionA(config).run().fields.components()
    fields = par.host_fields(result.stores)
    for comp in COMPONENTS:
        assert bitwise_equal_arrays(fields[comp], reference[comp]), comp


def count_store_segments(body):
    """Wrap a rank body so it *returns* how many distinct shared
    mappings back its store's arrays — counted inside the worker."""

    def counted(ctx, _body=body):
        _body(ctx)
        import ctypes

        mappings = set()
        for value in ctx.store.values():
            base = getattr(value, "base", None)
            if isinstance(base, ctypes.Array):  # a view into a kept mapping
                mappings.add(id(base))
        return len(mappings)

    return counted


# ---------------------------------------------------------------------------
# (a) two segments per rank; the second run writes no constant
# ---------------------------------------------------------------------------


def assert_constants_are_the_systems_own(system, result):
    for rank, spec in enumerate(system.processes):
        assert len(constant_keys(spec.store)) == 12
        for key, value in spec.store.items():
            if is_constant(value):
                assert result.stores[rank][key] is value
            else:
                assert result.stores[rank][key] is not value


def test_pooled_run_attaches_two_store_segments_and_constants_cross_once():
    config, par = version_a()
    system = par.to_parallel()
    for spec in system.processes:
        spec.body = count_store_segments(spec.body)
    constant_bytes = constant_nbytes(system)
    assert constant_bytes > 0
    with WorkerPool("fork") as pool:
        arena = pool.arena
        first = run_on_pool(pool, system)
        assert first.returns == [2, 2, 2]  # resident pack + run pack
        assert arena.constant_bytes == constant_bytes
        # Per rank one resident pack, and one run pack lent to `first`.
        assert len(arena) == 6
        assert_matches_sequential(config, par, first)
        assert_constants_are_the_systems_own(system, first)
        del first
        assert len(arena) == 3  # the resident packs stay in use
        created, recycled = arena.created, arena.recycled

        second = run_on_pool(pool, system)
        assert second.returns == [2, 2, 2]
        assert arena.created == created  # 0 segments created ...
        assert arena.constant_bytes == constant_bytes  # ... 0 constant bytes
        # Per rank one run pack, recycled; channels map no segment.
        assert arena.recycled - recycled == 3
        assert_matches_sequential(config, par, second)
        assert_constants_are_the_systems_own(system, second)
    assert live_segment_names() == frozenset()


# ---------------------------------------------------------------------------
# (b) the sweep: dropped Systems give their resident packs back
# ---------------------------------------------------------------------------


def test_fifty_dropped_systems_leave_the_arena_no_larger_than_one():
    baseline = live_segment_names()
    with WorkerPool("fork") as pool:
        arena = pool.arena
        sizes = None
        for i in range(50):
            config, par = version_a(n=7, steps=1, center=(2 + i % 3, 3, 3))
            run_on_pool(pool, par.to_parallel())
            if sizes is None:
                sizes = (len(arena), len(live_segment_names()))
            del config, par
            gc.collect()
            assert len(arena) <= sizes[0]
            assert len(live_segment_names()) <= sizes[1]
        # The last system is gone too: the next sweep parks its packs.
        arena.share_store({})
        assert len(arena) == 0
        assert arena.created == len(live_segment_names() - baseline)
    assert live_segment_names() == baseline


# ---------------------------------------------------------------------------
# (c) concurrent jobs of one System share one resident pack
# ---------------------------------------------------------------------------


def test_two_inflight_jobs_of_one_system_share_one_resident_pack():
    config, par = version_a(n=13, steps=4)
    system = par.to_parallel()
    constant_bytes = constant_nbytes(system)
    with JobServer(pool_size=6, max_inflight=2) as server:
        futures = [server.submit(system) for _ in range(4)]
        results = [f.result(timeout=60) for f in futures]
        arena = server.pool.arena
        assert server.stats()["inflight_hwm"] == 2
        assert arena.constant_bytes == constant_bytes  # written once
        # Three resident packs, and three run packs per held result.
        assert len(arena) == 3 + 3 * len(results)
        for result in results:
            assert_matches_sequential(config, par, result)
            for rank, spec in enumerate(system.processes):
                for key in constant_keys(spec.store):
                    assert result.stores[rank][key] is spec.store[key]
        del futures, results, result
        assert len(arena) == 3  # the resident packs, nothing else in use
    assert live_segment_names() == frozenset()


# ---------------------------------------------------------------------------
# (d) recycle() never hands a resident pack out as a run pack
# ---------------------------------------------------------------------------


def equal_size_store(n=512):
    const = np.arange(float(n))
    const.flags.writeable = False
    return {"c": const, "v": np.zeros(n)}  # equal-size packs


def test_recycle_between_shares_never_serves_a_resident_pack():
    arena = SharedStoreArena()
    try:
        store = equal_size_store()
        plan1, _ = arena.share_store(store)
        resident, run1 = plan1["c"][0], plan1["v"][0]
        assert resident != run1
        arena.recycle()  # no names: "everything in use"
        assert len(arena) == 1  # ... which the resident pack is not
        plan2, rest = arena.share_store(store)
        assert plan2["c"] == plan1["c"]  # found, not rewritten
        assert plan2["v"][0] == run1 != resident  # the parked run pack
        worker, handles = attach_store(plan2, rest, {})
        worker["v"][...] = np.nan
        assert bitwise_equal_arrays(worker["c"], store["c"])
        assert arena.readback(plan2)["c"] is store["c"]
        back = arena.readback(plan2)  # lends the run pack to `back`
        assert np.isnan(back["v"]).all()
        del worker
        arena.recycle([resident, run1])  # not even when named
        assert len(arena) == 2  # the resident pack, the lent run pack
        del back
        assert len(arena) == 1
    finally:
        arena.cleanup()
    assert live_segment_names() == frozenset()


def test_constants_stay_intact_in_the_worker_across_recycled_runs():
    def body(ctx):
        intact = bool((ctx.store["c"] == np.arange(512.0)).all())
        ctx.store["v"][...] = np.nan  # poison this run's run pack
        return intact

    system = System([ProcessSpec(0, body, store=equal_size_store())])
    with WorkerPool("fork") as pool:
        for _ in range(3):
            result = run_on_pool(pool, system)
            assert result.returns == [True]
            assert result.stores[0]["c"] is system.processes[0].store["c"]
            assert np.isnan(result.stores[0]["v"]).all()
            with pool.arena_lock:
                pool.arena.recycle()  # the whole-run engine spelling
        assert pool.arena.constant_bytes == 512 * 8
    assert live_segment_names() == frozenset()


# ---------------------------------------------------------------------------
# (e) round trip over arbitrary stores
# ---------------------------------------------------------------------------

DTYPES = st.sampled_from(
    ["?", "i1", "<i4", ">i8", "u2", "<f4", "<f8", "c16", "S3", "<U2"]
)


@st.composite
def arrays(draw):
    """Arrays of every raw-buffer kind, 0-d and 0-size included, in C,
    Fortran and strided layouts, above and below the share threshold,
    read-only or not."""
    dtype = np.dtype(draw(DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9))
    arr = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        arr = np.asfortranarray(arr)
    elif layout == "strided" and arr.ndim:
        wide = np.repeat(arr, 2, axis=-1)
        arr = wide[..., ::2]
    arr.flags.writeable = draw(st.booleans())
    return arr


OTHER_VALUES = st.one_of(
    st.integers(-5, 5),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=3),
    st.just(np.array([{"a": 1}, None], dtype=object)),
    st.just(np.zeros(40, dtype=[("x", "<f8"), ("y", "<i4")])),
)

STORES = st.dictionaries(
    st.text("abcdefgh", min_size=1, max_size=3),
    st.one_of(arrays(), OTHER_VALUES),
    max_size=6,
)


def same_value(a, b):
    if isinstance(a, np.ndarray) and a.dtype.kind in "biufcSU":
        return isinstance(b, np.ndarray) and bitwise_equal_arrays(a, b)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
    return a == b


def flip_bits(arr):
    arr.reshape(-1).view(np.uint8)[...] ^= 0xFF


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(STORES, st.sampled_from([1, DEFAULT_THRESHOLD]))
def test_round_trip_share_attach_flush_readback(store, threshold):
    arena = SharedStoreArena()
    try:
        plan, rest = arena.share_store(store, threshold=threshold)
        shared = {k for k, entry in plan.items() if entry[0] is not None}
        assert shared | set(rest) == set(store) and not shared & set(rest)
        assert len({plan[k][0] for k in shared}) <= 2
        for key, entry in plan.items():
            assert is_constant(store[key]) == entry[4]
            if key in shared:
                assert entry[1] % PACK_ALIGN == 0
                assert store[key].nbytes >= threshold
            else:
                assert entry == BY_VALUE_CONSTANT

        mapped = {}
        worker, handles = attach_store(plan, rest, mapped)
        assert set(worker) == set(store) and set(handles) == set(plan)
        assert set(mapped) == {plan[k][0] for k in shared}
        kept = {id(buf) for buf in mapped.values()}
        assert {k for k, arr in handles.items() if id(arr.base) in kept} == shared
        expected = {}
        for key, value in store.items():
            assert same_value(value, worker[key]), key
            if isinstance(value, np.ndarray):
                assert worker[key].flags.writeable == value.flags.writeable
            expected[key] = value
            if key in shared:
                assert worker[key].flags.c_contiguous
                assert worker[key].ctypes.data % PACK_ALIGN == 0
                if not is_constant(value):  # the body's in-place update
                    expected[key] = np.array(value, order="C")  # a copy; 0-d stays 0-d
                    flip_bits(expected[key])
                    flip_bits(worker[key])

        overrides = flush_store(worker, handles)
        # Exactly the by-value variables: no constant travels back.
        assert set(overrides) == set(rest) - set(plan)
        del worker

        final = {
            **by_value_constants(plan, rest),
            **arena.readback(plan),
            **overrides,
        }
        assert set(final) == set(store)
        for key, value in store.items():
            assert same_value(expected[key], final[key]), key
            if isinstance(value, np.ndarray):
                assert final[key].flags.writeable == value.flags.writeable
            if is_constant(value):
                assert final[key] is value
            elif key in shared:
                assert final[key] is not value
        del final  # the last views of the run pack lent at readback
        arena.recycle()
        assert len(arena) == bool(shared and any(plan[k][4] for k in shared))
    finally:
        arena.cleanup()
    assert live_segment_names() == frozenset()


def test_rebound_constant_comes_home_as_an_override():
    arena = SharedStoreArena()
    try:
        store = equal_size_store()
        plan, rest = arena.share_store(store)
        worker, handles = attach_store(plan, rest, {})
        worker["c"] = np.full(512, 7.0)  # same shape and dtype, rebound
        overrides = flush_store(worker, handles)
        assert set(overrides) == {"c"}
        del worker
        final = {**arena.readback(plan), **overrides}
        assert (final["c"] == 7.0).all()
        # The resident pack was not written through.
        again, _ = attach_store(*arena.share_store(store), {})
        assert bitwise_equal_arrays(again["c"], store["c"])
    finally:
        del again
        arena.cleanup()


# ---------------------------------------------------------------------------
# A body that writes a constant: attributed failure on every engine
# ---------------------------------------------------------------------------

ENGINES = [
    ("cooperative", {}),
    ("threaded", {}),
    ("multiprocess", {"start_method": "fork"}),
    ("multiprocess+pool", {"start_method": "fork"}),
    ("socket", {"daemons": 2}),
]


def poking_system(n):
    """Rank 1 assigns into its constant iff its store says ``poke``."""
    const = np.arange(float(n))
    const.flags.writeable = False

    def body(ctx):
        other = 1 - ctx.rank
        ctx.send(f"c{ctx.rank}", ctx.store["v"] + ctx.store["c"])
        if ctx.store["poke"]:
            ctx.store["c"][0] = -1.0
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
    return system


@pytest.mark.parametrize("n", [8, 64], ids=["by-value", "packed"])
@pytest.mark.parametrize("name,options", ENGINES, ids=[e[0] for e in ENGINES])
def test_writing_a_constant_fails_attributed_and_leaves_nothing_behind(
    name, options, n
):
    baseline = live_segment_names()
    system = poking_system(n)
    const = system.processes[1].store["c"]
    engine = make_engine(name, **options)
    try:
        system.processes[1].store["poke"] = 1
        with pytest.raises(ProcessFailedError) as info:
            engine.run(system)
        assert info.value.rank == 1
        assert "read-only" in str(info.value)
        assert bitwise_equal_arrays(const, np.arange(float(n)))

        system.processes[1].store["poke"] = 0
        result = engine.run(system)  # same System, same engine
        total = float(np.arange(n).sum())
        assert result.returns == [total + n, total]
        assert bitwise_equal_arrays(const, np.arange(float(n)))
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    assert live_segment_names() == baseline


# ---------------------------------------------------------------------------
# No leak on the failing paths either
# ---------------------------------------------------------------------------


def test_killed_worker_and_abandoned_setup_leave_no_segment():
    def body(ctx):
        if ctx.store["die"]:
            import os

            os.kill(os.getpid(), 9)
        return float(ctx.store["c"].sum())

    system = System([ProcessSpec(0, body, store={**equal_size_store(), "die": 0})])
    expected = float(np.arange(512.0).sum())
    with WorkerPool("fork") as pool:
        assert run_on_pool(pool, system).returns == [expected]

        system.processes[0].store["die"] = 1
        with pytest.raises(ProcessFailedError):
            run_on_pool(pool, system, crash_grace=0.5)
        system.processes[0].store["die"] = 0

        # Abandoned setup: the dispatch itself fails.  No rank was
        # dispatched, so none can write the run's segments: they are
        # recycled, not left in use until shutdown.
        dispatch = pool.dispatch
        pool.dispatch = lambda *a, **k: (_ for _ in ()).throw(OSError("gone"))
        in_use = len(pool.arena)
        with pytest.raises(OSError, match="gone"):
            run_on_pool(pool, system)
        assert len(pool.arena) == in_use
        pool.dispatch = dispatch

        assert run_on_pool(pool, system).returns == [expected]
        assert pool.arena.constant_bytes == 512 * 8  # still the first pack
    assert live_segment_names() == frozenset()


def test_arrays_dying_on_other_threads_never_corrupt_the_arena():
    """The only thing that touches an arena without its lock is a dying
    constant or lease noting its pack's name.  Threads share, read back
    and drop stores under a short switch interval; every pack must be
    found, hold its own arrays, and be parked once they are gone."""
    import sys
    import threading
    import time

    arena, lock = SharedStoreArena(), threading.Lock()
    errors, rounds = [], []
    deadline = time.monotonic() + 1.5

    def churn(seed):
        try:
            n = 0
            while time.monotonic() < deadline and n < 200:
                store = equal_size_store(64 + 8 * seed)
                store["c"] = store["c"] + float(n)  # a new array ...
                store["c"].flags.writeable = False  # ... and a constant
                store["v"][...] = 1000 * seed + n  # only this round's
                with lock:
                    plan, rest = arena.share_store(store)
                    worker, handles = attach_store(plan, rest, {})
                    same = bitwise_equal_arrays(worker["c"], store["c"])
                    del worker
                    back = arena.readback(plan)
                    arena.recycle({entry[0] for entry in plan.values()})
                # Outside the lock, while other threads share: the run
                # pack `back` views is lent, so none of them reuses it.
                if (
                    not same
                    or back["c"] is not store["c"]
                    or not (back["v"] == 1000 * seed + n).all()
                ):
                    errors.append((seed, n))
                del store, back  # dies here, outside the lock
                n += 1
            rounds.append((seed, n))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert errors == [] and len(rounds) == 6
        assert all(n > 0 for _seed, n in rounds)
        gc.collect()
        arena.share_store({})  # the sweep
        assert len(arena) == 0
        # Every store's constant was written exactly once.
        assert arena.constant_bytes == sum(
            n * (64 + 8 * seed) * 8 for seed, n in rounds
        )
    finally:
        arena.cleanup()
    assert live_segment_names() == frozenset()
