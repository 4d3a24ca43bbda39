"""The overlap refinement: split exchanges, shell/interior peeling, and
bitwise equivalence of the overlapped FDTD program on every engine.

The overlap refinement moves each exchange's sends *earlier* (right
after the boundary shell is final) and its receives *later* (right
before the first ghost read).  On infinite-slack channels that removes
blocking edges and adds none, so Theorem 1 still applies: the
overlapped program must produce results bitwise identical to the
baseline — under the simulator, under free-running threads, under
adversarial random schedules, and in real OS processes alike.  This
file asserts exactly that, plus the geometric facts the refinement
rests on (the shell/interior pieces tile each update region exactly).
"""

import numpy as np
import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    FDTDConfig,
    GaussianPulse,
    NTFFConfig,
    PointSource,
    RickerWavelet,
    VersionA,
    YeeGrid,
    build_parallel_fdtd,
)
from repro.apps.fdtd.boundary import split_mur_regions
from repro.apps.fdtd.update import (
    comm_strips,
    local_update_regions,
    split_local_update_regions,
    split_region,
)
from repro.archetypes.mesh import BlockDecomposition
from repro.refinement import (
    AddressSpace,
    DataExchange,
    SimulatedParallelProgram,
    VarRef,
    split_exchange,
)
from repro.runtime import CooperativeEngine, RandomPolicy, ThreadedEngine, make_engine
from repro.util import bitwise_equal_arrays


def small_config(steps=4, boundary="pec", shape=(10, 9, 8)):
    return FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=steps,
        boundary=boundary,
        sources=[
            PointSource("ez", (5, 4, 4), GaussianPulse(delay=8, spread=3))
        ],
    )


def fields_identical(host_fields, seq_fields):
    return all(
        bitwise_equal_arrays(host_fields[c], seq_fields[c]) for c in COMPONENTS
    )


# ---------------------------------------------------------------------------
# Geometry: the peel must tile each region exactly
# ---------------------------------------------------------------------------


def cells_of(pieces, shape):
    mask = np.zeros(shape, dtype=int)
    for piece in pieces:
        mask[piece] += 1
    return mask


class TestSplitRegion:
    @pytest.mark.parametrize("pshape", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_pieces_tile_region_exactly(self, pshape):
        grid = YeeGrid(shape=(11, 9, 8))
        decomp = BlockDecomposition(grid.shape, pshape, ghost=1)
        for rank in range(decomp.nprocs):
            strips = comm_strips(decomp, rank)
            shape = tuple(
                b - a + 2 * decomp.ghost
                for a, b in decomp.owned_bounds(rank)
            )
            for comp, region in local_update_regions(grid, decomp, rank).items():
                if region is None:
                    continue
                shell, interior = split_region(region, strips)
                mask = cells_of(shell + interior, shape)
                whole = np.zeros(shape, dtype=int)
                whole[region] = 1
                # every cell of the region exactly once, nothing outside
                assert np.array_equal(mask, whole), (rank, comp)

    def test_shell_pieces_lie_inside_strips(self):
        grid = YeeGrid(shape=(10, 9, 8))
        decomp = BlockDecomposition(grid.shape, (2, 2, 1), ghost=1)
        for rank in range(decomp.nprocs):
            strips = comm_strips(decomp, rank)
            shell, _ = split_local_update_regions(grid, decomp, rank)
            for pieces in shell.values():
                for piece in pieces:
                    assert any(
                        lo <= piece[axis].start and piece[axis].stop <= hi
                        for axis, lo, hi in strips
                    ), piece

    def test_single_rank_has_empty_shell(self):
        grid = YeeGrid(shape=(10, 9, 8))
        decomp = BlockDecomposition(grid.shape, (1, 1, 1), ghost=1)
        assert comm_strips(decomp, 0) == []
        shell, interior = split_local_update_regions(grid, decomp, 0)
        assert all(not pieces for pieces in shell.values())
        regions = local_update_regions(grid, decomp, 0)
        assert all(interior[c] == [regions[c]] for c in regions)

    def test_none_region_splits_to_nothing(self):
        assert split_region(None, [(0, 1, 2)]) == ([], [])


class TestSplitMurRegions:
    def test_pieces_tile_faces_and_keep_inward_offset(self):
        from repro.apps.fdtd.parallel import _mur_local_regions

        grid = YeeGrid(shape=(12, 10, 8))
        decomp = BlockDecomposition(grid.shape, (2, 2, 1), ghost=1)
        for rank in range(decomp.nprocs):
            strips = comm_strips(decomp, rank)
            regions = _mur_local_regions(grid, decomp, rank)
            shell, interior = split_mur_regions(regions, strips)
            shape = tuple(
                b - a + 2 * decomp.ghost
                for a, b in decomp.owned_bounds(rank)
            )
            for key, pair in regions.items():
                if pair is None:
                    continue
                face, inward = pair
                axis = key[1]
                delta = inward[axis].start - face[axis].start
                pieces = [
                    (f, i)
                    for part in (shell, interior)
                    for k, (f, i) in part.items()
                    if k[:3] == key
                ]
                mask = cells_of([f for f, _ in pieces], shape)
                whole = np.zeros(shape, dtype=int)
                whole[face] = 1
                assert np.array_equal(mask, whole), key
                for f, inw in pieces:
                    assert inw[axis].start - f[axis].start == delta
                    for ax in range(3):
                        if ax != axis:
                            assert inw[ax] == f[ax]


# ---------------------------------------------------------------------------
# Split exchanges as program stages
# ---------------------------------------------------------------------------


def blank_store(rank):
    return AddressSpace({"u": np.zeros(4), "w": np.zeros(2)}, owner=rank)


def split_pair_program():
    """Two ranks swap edge values; a local block runs between the split
    halves and must not affect the exchanged data."""

    def init(store, rank):
        store["u"] = np.arange(4.0) + 10 * rank
        store["w"] = np.zeros(2)

    def middle(store, rank):
        store["w"] += rank + 1  # touches neither u's strips nor ghosts

    op = DataExchange(name="swap")
    op.assign(VarRef(0, "u", (slice(0, 1),)), VarRef(1, "u", (slice(3, 4),)))
    op.assign(VarRef(1, "u", (slice(0, 1),)), VarRef(0, "u", (slice(3, 4),)))

    prog = SimulatedParallelProgram(nprocs=2, name="split-pair")
    prog.spmd(init, name="init")
    begin, end = split_exchange(op)
    prog.stages.append(begin)
    prog.spmd(middle, name="middle")
    prog.stages.append(end)
    return prog


def unsplit_pair_program():
    def init(store, rank):
        store["u"] = np.arange(4.0) + 10 * rank
        store["w"] = np.zeros(2)

    def middle(store, rank):
        store["w"] += rank + 1

    op = DataExchange(name="swap")
    op.assign(VarRef(0, "u", (slice(0, 1),)), VarRef(1, "u", (slice(3, 4),)))
    op.assign(VarRef(1, "u", (slice(0, 1),)), VarRef(0, "u", (slice(3, 4),)))

    prog = SimulatedParallelProgram(nprocs=2, name="unsplit-pair")
    prog.spmd(init, name="init")
    prog.exchange(op)
    prog.spmd(middle, name="middle")
    return prog


class TestSplitExchangeStages:
    def test_simulated_split_equals_unsplit(self):
        split_stores = [blank_store(r) for r in range(2)]
        unsplit_stores = [blank_store(r) for r in range(2)]
        split_pair_program().run(split_stores)
        unsplit_pair_program().run(unsplit_stores)
        for a, b in zip(split_stores, unsplit_stores):
            assert bitwise_equal_arrays(a["u"], b["u"])
            assert bitwise_equal_arrays(a["w"], b["w"])

    def test_validate_accepts_matched_pair(self):
        split_pair_program().validate()

    def test_exchanges_counted_once(self):
        assert len(split_pair_program().exchanges()) == 1

    @pytest.mark.parametrize(
        "engine_factory",
        [
            ThreadedEngine,
            lambda: CooperativeEngine(RandomPolicy(3)),
            # pool workers receive the body by pickling — the stage
            # bookkeeping must survive the round trip (regression test:
            # identity-keyed maps do not)
            lambda: make_engine("multiprocess", start_method="fork"),
        ],
    )
    def test_parallel_split_matches_simulated(self, engine_factory):
        prog = split_pair_program()
        sim_stores = [blank_store(r) for r in range(2)]
        prog.run(sim_stores)
        from repro.refinement import to_parallel_system

        engine = engine_factory()
        try:
            result = engine.run(
                to_parallel_system(
                    prog, initial={"u": np.zeros(4), "w": np.zeros(2)}
                )
            )
        finally:
            getattr(engine, "close", lambda: None)()
        for rank in range(2):
            assert bitwise_equal_arrays(
                np.asarray(result.stores[rank]["u"]), sim_stores[rank]["u"]
            )
            assert bitwise_equal_arrays(
                np.asarray(result.stores[rank]["w"]), sim_stores[rank]["w"]
            )


# ---------------------------------------------------------------------------
# The overlapped FDTD program: bitwise identical everywhere
# ---------------------------------------------------------------------------


class TestOverlapSimulated:
    @pytest.mark.parametrize("boundary", ["pec", "mur1"])
    @pytest.mark.parametrize("pshape", [(1, 1, 1), (2, 1, 1), (2, 2, 1)])
    def test_overlap_equals_sequential(self, boundary, pshape):
        config = small_config(steps=6, boundary=boundary)
        seq = VersionA(config).run()
        par = build_parallel_fdtd(config, pshape, version="A", overlap=True)
        stores = par.run_simulated()
        assert fields_identical(par.host_fields(stores), seq.fields)

    def test_overlap_equals_baseline_with_farfield(self):
        config = FDTDConfig(
            grid=YeeGrid(shape=(12, 10, 8)),
            steps=6,
            boundary="mur1",
            sources=[
                PointSource("ez", (6, 5, 4), RickerWavelet(delay=10, spread=4))
            ],
        )
        ntff = NTFFConfig(gap=3)
        base = build_parallel_fdtd(config, (2, 2, 1), version="C", ntff=ntff)
        over = build_parallel_fdtd(
            config, (2, 2, 1), version="C", ntff=ntff, overlap=True
        )
        base_stores = base.run_simulated()
        over_stores = over.run_simulated()
        assert fields_identical(
            over.host_fields(over_stores), base.host_fields(base_stores)
        )
        for key in ("ffA_total", "ffF_total"):
            assert bitwise_equal_arrays(
                np.asarray(over_stores[over.host][key]),
                np.asarray(base_stores[base.host][key]),
            )


class TestOverlapEngineMatrix:
    """overlap=True vs the sequential Version A, per engine."""

    def _reference(self, config):
        return VersionA(config).run().fields

    def _check(self, engine, par, seq_fields):
        try:
            result = engine.run(par.to_parallel())
        finally:
            getattr(engine, "close", lambda: None)()
        host_fields = {
            c: np.asarray(result.stores[par.host][c]) for c in COMPONENTS
        }
        assert fields_identical(host_fields, seq_fields)

    def test_threaded(self):
        config = small_config(steps=5, boundary="mur1")
        par = build_parallel_fdtd(config, (2, 2, 1), version="A", overlap=True)
        self._check(ThreadedEngine(), par, self._reference(config))

    @pytest.mark.parametrize("seed", range(3))
    def test_cooperative_adversarial(self, seed):
        config = small_config(steps=4)
        par = build_parallel_fdtd(config, (2, 2, 1), version="A", overlap=True)
        self._check(
            CooperativeEngine(RandomPolicy(seed=seed)),
            par,
            self._reference(config),
        )

    def test_multiprocess(self):
        config = small_config(steps=4)
        par = build_parallel_fdtd(config, (2, 1, 1), version="A", overlap=True)
        self._check(
            make_engine("multiprocess", start_method="fork"),
            par,
            self._reference(config),
        )

    @pytest.mark.slow
    def test_socket(self):
        config = small_config(steps=4)
        par = build_parallel_fdtd(config, (2, 1, 1), version="A", overlap=True)
        self._check(
            make_engine("socket"), par, self._reference(config)
        )
