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
from repro.apps.fdtd.update import KernelScratch, update_e, update_h
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
    return arrays, driver._regions, driver._inv_spacing, Mur1(config.grid)


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
