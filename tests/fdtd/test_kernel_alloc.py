"""Allocation-free kernel path: bitwise identity + zero steady-state allocs.

The scratch-buffer ``curl_update`` rewrites *where* intermediates live,
not *what* is computed: the per-element operation dag is unchanged, so
results must be bitwise identical to the original allocating path
(``scratch=None``, run by a reference loop here) — on the sequential
drivers (Versions A and C) and through the 4-rank parallelization
alike.  The tracemalloc checks then pin down the perf
claim itself: a steady-state leapfrog step — Mur record, E update, Mur
apply, H update — performs zero array allocations with scratch, while
the legacy path demonstrably allocates (so the check is known to be
able to fail).
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    FDTDConfig,
    GaussianPulse,
    Material,
    MaterialGrid,
    NTFFConfig,
    PointSource,
    VersionA,
    VersionC,
    YeeGrid,
    build_parallel_fdtd,
)
from repro.apps.fdtd import update as update_module
from repro.apps.fdtd.boundary import Mur1
from repro.apps.fdtd.ntff import NTFFAccumulator
from repro.apps.fdtd.parallel import rank_passes
from repro.apps.fdtd.update import (
    KernelScratch,
    curl_update,
    run_curl,
    update_e,
    update_h,
)
from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.archetypes.mesh.distributed_grid import scatter_array
from repro.refinement.store import AddressSpace
from repro.util import bitwise_equal_arrays


def _config(shape=(14, 13, 12), steps=10, boundary="mur1"):
    grid = YeeGrid(shape=shape)
    mats = MaterialGrid(grid).add_box(
        (5, 4, 3), (9, 8, 7), Material(eps_r=3.0, sigma_e=0.01)
    )
    return FDTDConfig(
        grid=grid,
        steps=steps,
        boundary=boundary,
        materials=mats,
        sources=[
            PointSource("ez", (3, 6, 5), GaussianPulse(delay=8, spread=3))
        ],
    )


def _fields_equal(a, b):
    return all(bitwise_equal_arrays(a[c], b[c]) for c in COMPONENTS)


class TestBitwiseIdentity:
    def test_version_a_scratch_identical_to_seed(self):
        config = _config()
        seed, _ = _reference_run(config)
        assert _fields_equal(seed, VersionA(config).run().fields)

    def test_version_c_scratch_identical_to_seed(self):
        config = _config(boundary="pec")
        ntff = NTFFConfig(gap=3)
        seed, acc = _reference_run(config, ntff)
        run = VersionC(config, ntff).run()
        assert _fields_equal(seed, run.fields)
        A, F = acc.potentials()
        assert bitwise_equal_arrays(A, run.vector_potential_A)
        assert bitwise_equal_arrays(F, run.vector_potential_F)

    @pytest.mark.parametrize("version", ["A", "C"])
    def test_four_rank_scratch_identical_to_seed(self, version):
        # The parallel phases always run through per-rank scratch; their
        # near fields must still be bitwise identical to the scratch-less
        # reference loop (the paper's §4.5 identity, now across the
        # kernel rewrite as well as the decomposition).
        config = _config(boundary="pec" if version == "C" else "mur1")
        ntff = NTFFConfig(gap=3) if version == "C" else None
        seed, _ = _reference_run(config, ntff)
        par = build_parallel_fdtd(config, (2, 2, 1), version=version, ntff=ntff)
        sim = par.run_simulated()
        sim_fields = par.host_fields(sim)
        assert _fields_equal(seed, sim_fields)


def _bare_loop_arrays(n=40):
    config = FDTDConfig(
        grid=YeeGrid(shape=(n, n, n)),
        steps=1,
        sources=[
            PointSource(
                "ez", (n // 2,) * 3, GaussianPulse(delay=8, spread=3)
            )
        ],
    )
    driver = VersionA(config)
    arrays = dict(config.initial_fields().components())
    arrays.update(driver.coefs.arrays())
    step_pass = driver._pass
    return arrays, step_pass.regions, step_pass.inv_spacing, Mur1(config.grid)


def _step(arrays, regions, inv, mur, scratch, drives=(), step=0):
    """What one leapfrog step runs: Mur record, E, Mur apply, sources, H
    (``mur=None`` under PEC)."""
    if mur is not None:
        mur.record(arrays)
    update_e(arrays, regions, inv, scratch)
    if mur is not None:
        mur.apply(arrays)
    for src, region in drives:
        arrays[src.component][region] += src.value(step)
    update_h(arrays, regions, inv, scratch)


def _reference_run(config, ntff=None):
    """The unbound reference: the drivers' step order through
    ``update_e`` / ``update_h`` with ``scratch=None``.  Returns the
    final arrays and, given ``ntff``, the far-field accumulator it fed
    after every H update."""
    grid = config.grid
    arrays = dict(config.initial_fields().components())
    arrays.update(config.coefficient_set().arrays())
    regions = {comp: grid.update_region(comp) for comp in COMPONENTS}
    inv = tuple(1.0 / d for d in grid.spacing)
    mur = Mur1(grid) if config.boundary == "mur1" else None
    drives = [(src, src.global_region(grid)) for src in config.sources]
    acc = None
    if ntff is not None:
        acc = NTFFAccumulator(grid, ntff, steps=config.steps)
    for step in range(config.steps):
        _step(arrays, regions, inv, mur, None, drives, step)
        if acc is not None:
            acc.accumulate(arrays, step)
    return arrays, acc


class TestSteadyStateAllocations:
    #: Python-object noise budget per measurement window (slices, tuples,
    #: iterator objects) — far below one field-region temporary.
    NOISE = 64 * 1024

    def _peak_over(self, arrays, regions, inv, mur, scratch, steps=4):
        # Warm the scratch cache and the Mur planes first so only steady
        # state is measured.
        _step(arrays, regions, inv, mur, scratch)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            for _ in range(steps):
                _step(arrays, regions, inv, mur, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base

    def test_scratch_loop_allocates_no_arrays(self):
        arrays, regions, inv, mur = _bare_loop_arrays()
        scratch = KernelScratch()
        assert self._peak_over(arrays, regions, inv, mur, scratch) < self.NOISE

    def test_legacy_loop_detectably_allocates(self):
        # The same measurement must trip on the allocating path, or the
        # zero-allocation assertion above would be vacuous.
        arrays, regions, inv, mur = _bare_loop_arrays()
        one_region = arrays["ex"][1:-1, 1:-1, 1:-1].nbytes
        assert self._peak_over(arrays, regions, inv, mur, None) > one_region

    def test_scratch_cache_is_bounded_and_reused(self):
        # 56^3 nodes in 3136-element planes: one array is several blocks.
        arrays, regions, inv, mur = _bare_loop_arrays(n=55)
        assert arrays["ex"].size > 2 * update_module._BLOCK
        scratch = KernelScratch()
        _step(arrays, regions, inv, mur, scratch)
        warm = scratch.nbytes()
        for _ in range(3):
            _step(arrays, regions, inv, mur, scratch)
        assert scratch.nbytes() == warm  # fixed regions: no cache growth
        # three buffers of one block, whatever the grid and however many
        # distinct update regions the six components have
        assert warm <= 3 * update_module._BLOCK * arrays["ex"].itemsize

    def test_mur_planes_do_not_cross_a_pickle(self):
        # A body pickled after a run (the threaded engine ran it first)
        # must not ship its Mur planes, and must work without them.
        arrays, regions, inv, mur = _bare_loop_arrays(n=12)
        rng = np.random.default_rng(0)
        for comp in COMPONENTS:
            arrays[comp][...] = rng.uniform(-1.0, 1.0, arrays[comp].shape)
        fresh = len(pickle.dumps(mur))
        _step(arrays, regions, inv, mur, KernelScratch())
        assert len(pickle.dumps(mur)) == fresh
        twin_arrays = {k: v.copy() for k, v in arrays.items()}
        twin = pickle.loads(pickle.dumps(mur))
        _step(arrays, regions, inv, mur, KernelScratch())
        _step(twin_arrays, regions, inv, twin, KernelScratch())
        assert _fields_equal(arrays, twin_arrays)


def _rank_store(config, decomp, rank, seed=0):
    """One rank's ghosted local arrays of random fields (ghosts filled as
    after an exchange) and the configuration's coefficients."""
    rng = np.random.default_rng(seed)
    shape = config.grid.node_shape
    arrays = {c: rng.uniform(-1.0, 1.0, shape) for c in COMPONENTS}
    arrays.update(config.coefficient_set().arrays())
    return AddressSpace(
        {
            name: scatter_array(decomp, arr, fill_ghosts=True)[rank]
            for name, arr in arrays.items()
        }
    )


def _copy(store):
    return AddressSpace({k: v.copy() for k, v in store.items()})


class TestStepPlan:
    """The drivers' hot path: one :class:`StepPlan` per pass and run."""

    #: A planned step makes a few small Python objects (~1.5 KB at
    #: most); one 40x40 boundary-plane temporary (12.8 KB) exceeds this.
    #: A ufunc over a strided plane buffers a copy of it, so every Mur
    #: operand the plan computes on must be contiguous to pass.
    NOISE = 8 * 1024

    def _peak_over(self, step_pass, arrays, steps=4):
        # The first step binds the plan (and warms the scratch): measure
        # the steps after it.
        step_pass.e(arrays, 0)
        step_pass.h(arrays, 0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            for step in range(1, 1 + steps):
                step_pass.e(arrays, step)
                step_pass.h(arrays, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base

    def test_planned_version_a_step_allocates_no_arrays(self):
        config = _config(shape=(40, 40, 40), steps=100)
        driver = VersionA(config)
        arrays = driver._arrays(config.initial_fields())
        assert self._peak_over(driver._pass, arrays) < self.NOISE

    @pytest.mark.parametrize("rank", [0, 1])
    def test_planned_rank_step_allocates_no_arrays(self, rank):
        config = _config(shape=(40, 40, 40), steps=100)
        decomp = BlockDecomposition(config.grid.node_shape, (2, 1, 1), ghost=1)
        (step_pass,) = rank_passes(config, decomp, rank, None, overlap=False)
        store = _rank_store(config, decomp, rank)
        assert self._peak_over(step_pass, store) < self.NOISE

    @pytest.mark.parametrize("overlap", [False, True], ids=["plain", "overlap"])
    @pytest.mark.parametrize(
        "pshape", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2)], ids=str
    )
    def test_every_plan_piece_matches_unbound_curl_update(self, pshape, overlap):
        # Each half-step's bound slabs plus its reference-branch pieces
        # must do exactly what the unbound reference (scratch=None) does
        # over the pass's regions: a missing, doubled or misbound piece
        # moves a cell.
        config = _config()
        decomp = BlockDecomposition(config.grid.node_shape, pshape, ghost=1)
        reference_pieces = 0
        for rank in range(decomp.nprocs):
            store = _rank_store(config, decomp, rank, seed=rank)
            for step_pass in rank_passes(config, decomp, rank, None, overlap):
                planned, unbound = _copy(store), _copy(store)
                plan = step_pass.plan(planned)
                for slabs, pieces, update in (
                    (plan.e_slabs, plan.e_reference, update_e),
                    (plan.h_slabs, plan.h_reference, update_h),
                ):
                    run_curl(slabs)
                    for args in pieces:
                        curl_update(*args)
                    update(unbound, step_pass.regions, step_pass.inv_spacing)
                    assert _fields_equal(planned, unbound), (rank, step_pass)
                reference_pieces += len(plan.e_reference) + len(plan.h_reference)
        # Shell strips thin in y or z are low-fill: the plan keeps them
        # on the reference expression, and they are covered here.
        if overlap and max(pshape[1:]) > 1:
            assert reference_pieces > 0

    def test_plan_is_bound_at_the_first_step_and_dropped_after_the_last(self):
        config = _config(steps=3)
        driver = VersionA(config)
        step_pass = driver._pass
        fresh = len(pickle.dumps(step_pass))
        arrays = driver._arrays(config.initial_fields())
        step_pass.e(arrays, 0)
        plan = step_pass._plan
        assert plan is not None
        assert len(pickle.dumps(step_pass)) == fresh  # never pickled
        for step in range(2):
            step_pass.h(arrays, step)
            step_pass.e(arrays, step + 1)
            assert step_pass._plan is plan  # bound once, reused
        step_pass.h(arrays, 2)
        assert step_pass._plan is None  # a finished run keeps no views
        assert len(pickle.dumps(step_pass)) == fresh
        driver.run()
        assert step_pass._plan is None

    def test_plan_rebinds_when_an_array_is_replaced(self):
        # A plan bound to a replaced array would keep stepping the old
        # one, and the new one would never move.
        config = _config(steps=6)
        driver = VersionA(config)
        step_pass = driver._pass
        arrays = driver._arrays(config.initial_fields())
        expected = {k: v.copy() for k, v in arrays.items()}
        mur = Mur1(config.grid)
        drives = step_pass.drives
        regions, inv = step_pass.regions, step_pass.inv_spacing
        for step in range(config.steps):
            if step == 3:
                arrays["hy"] = arrays["hy"].copy()
            step_pass.e(arrays, step)
            step_pass.h(arrays, step)
            _step(expected, regions, inv, mur, None, drives, step)
        assert _fields_equal(arrays, expected)
