"""The FDTD ghost-read footprint: what the exchanges ship is exactly
what the stencils read.

``update_e`` takes backward differences and ``update_h`` forward ones,
so of the six (component, direction) strips that could cross an
inter-rank face per phase only two are ever read.  The parallel program
declares that footprint (derived from the curl tables) and ships
nothing else.  These tests pin the footprint against a hand-written
table, prove by NaN-poisoning that no stage reads a ghost cell the
footprint leaves unfilled, and pin the resulting message counts and the
one-sided overlap shell.
"""

import numpy as np
import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    E_COMPONENTS,
    H_COMPONENTS,
    FDTDConfig,
    GaussianPulse,
    NTFFConfig,
    PlaneSource,
    PointSource,
    VersionA,
    VersionC,
    YeeGrid,
    build_parallel_fdtd,
)
from repro.apps.fdtd.update import (
    E_GHOST_FACES,
    E_SHELL_SIDES,
    H_GHOST_FACES,
    H_SHELL_SIDES,
    comm_strips,
    local_update_regions,
    split_local_update_regions,
)
from repro.archetypes.mesh import BlockDecomposition
from repro.refinement.store import AddressSpace
from repro.refinement.transform import to_parallel_system
from repro.runtime import CooperativeEngine, ThreadedEngine
from repro.util import bitwise_equal_arrays

PSHAPES = [(2, 1, 1), (1, 2, 1), (2, 2, 2), (1, 3, 2)]
MODES = {
    "baseline": {},
    "batch": {"batch_exchanges": True},
    "overlap": {"overlap": True},
}


def config_for(boundary, steps=8):
    # Sources next to the block faces of every PSHAPES entry, so the
    # wave crosses inter-rank faces within a few steps; the plane source
    # spans several ranks and exercises the split plane applier.
    return FDTDConfig(
        grid=YeeGrid(shape=(10, 11, 9)),
        steps=steps,
        boundary=boundary,
        sources=[
            PointSource("ez", (5, 4, 4), GaussianPulse(delay=4, spread=2)),
            PlaneSource("ey", 0, 6, GaussianPulse(delay=3, spread=2), 0.5),
        ],
    )


def poisoned_stores(par):
    """Initial stores with every ghost cell of all six field arrays set
    to NaN: any read of a ghost no exchange filled poisons an owned
    cell and breaks the bitwise comparison."""
    stores = par.builder.initial_stores()
    decomp = par.decomp
    for rank in range(decomp.nprocs):
        owned = decomp.interior_slices(rank)
        for comp in COMPONENTS:
            arr = stores[rank][comp]
            ghost = np.ones(arr.shape, dtype=bool)
            ghost[owned] = False
            arr[ghost] = np.nan
    return stores


def run_poisoned(par, engine=None):
    program = par.builder.build()
    stores = poisoned_stores(par)
    if engine is None:
        return program.run(
            stores=[AddressSpace(s, owner=i) for i, s in enumerate(stores)]
        )
    return engine.run(to_parallel_system(program, initial_stores=stores)).stores


# ---------------------------------------------------------------------------
# (b) the footprint itself
# ---------------------------------------------------------------------------


class TestFootprintTable:
    def test_matches_hand_written_table(self):
        x, y, z = 0, 1, 2
        assert H_GHOST_FACES == {
            ("hy", x, -1), ("hz", x, -1),
            ("hx", y, -1), ("hz", y, -1),
            ("hx", z, -1), ("hy", z, -1),
        }  # fmt: skip
        assert E_GHOST_FACES == {
            ("ey", x, +1), ("ez", x, +1),
            ("ex", y, +1), ("ez", y, +1),
            ("ex", z, +1), ("ey", z, +1),
        }  # fmt: skip

    def test_shell_sides_are_one_sided(self):
        assert E_SHELL_SIDES == {-1}
        assert H_SHELL_SIDES == {+1}


# ---------------------------------------------------------------------------
# (a) no stage reads a ghost the footprint does not fill
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("pshape", PSHAPES)
@pytest.mark.parametrize("boundary", ["pec", "mur1"])
class TestPoisonedGhosts:
    def test_version_a_bitwise(self, boundary, pshape, mode):
        config = config_for(boundary)
        seq = VersionA(config).run()
        par = build_parallel_fdtd(config, pshape, version="A", **MODES[mode])
        for engine in (None, ThreadedEngine()):
            fields = par.host_fields(run_poisoned(par, engine))
            for comp in COMPONENTS:
                assert bitwise_equal_arrays(fields[comp], seq.fields[comp]), (
                    comp,
                    engine,
                )

    def test_version_c_bitwise_fields_close_potentials(
        self, boundary, pshape, mode
    ):
        config = config_for(boundary)
        ntff = NTFFConfig(gap=3)
        seq = VersionC(config, ntff).run()
        par = build_parallel_fdtd(
            config, pshape, version="C", ntff=ntff, **MODES[mode]
        )
        stores = run_poisoned(par)
        fields = par.host_fields(stores)
        for comp in COMPONENTS:
            assert bitwise_equal_arrays(fields[comp], seq.fields[comp]), comp
        # Potentials: untouched by the poison (bitwise the clean run's)
        # and the reordered double sum stays within 1e-9 of the
        # sequential one, relative to its scale.
        clean = par.host_potentials(par.run_simulated())
        reference = (seq.vector_potential_A, seq.vector_potential_F)
        for got, sim, ref in zip(par.host_potentials(stores), clean, reference):
            assert np.isfinite(got).all()
            assert bitwise_equal_arrays(got, sim)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# (c) exact message counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pshape", PSHAPES)
@pytest.mark.parametrize(
    "mode,per_face_pair", [("baseline", 4), ("batch", 2), ("overlap", 2)]
)
def test_messages_per_step(pshape, mode, per_face_pair):
    """Per step and inter-rank face pair: two H components one way plus
    two E components the other — 4 messages, 2 when each phase's
    components share a frame."""
    steps = 3
    config = config_for("pec", steps=steps)
    par = build_parallel_fdtd(config, pshape, version="A", **MODES[mode])
    result = CooperativeEngine().run(par.to_parallel())
    grid_ranks = range(par.grid_size)
    exchange_msgs = sum(
        sends
        for name, (sends, _) in result.channel_stats.items()
        if int(name.split("_")[1]) in grid_ranks
        and int(name.split("_")[2]) in grid_ranks
    )
    face_pairs = len(par.decomp.all_faces()) // 2
    assert exchange_msgs == steps * per_face_pair * face_pairs


# ---------------------------------------------------------------------------
# (d) the overlap shell is one-sided and still tiles the regions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pshape", PSHAPES)
def test_overlap_shell_one_sided_and_tiling(pshape):
    grid = YeeGrid(shape=(10, 11, 9))
    decomp = BlockDecomposition(grid.node_shape, pshape, ghost=1)
    for rank in range(decomp.nprocs):
        shell, interior = split_local_update_regions(grid, decomp, rank)
        regions = local_update_regions(grid, decomp, rank)
        shape = decomp.local_shape(rank)
        for comps, sides in (
            (E_COMPONENTS, E_SHELL_SIDES),
            (H_COMPONENTS, H_SHELL_SIDES),
        ):
            strips = comm_strips(decomp, rank, sides)
            # one side only: never more strips than axes with a neighbour
            assert len(strips) <= sum(p > 1 for p in pshape)
            for comp in comps:
                for piece in shell[comp]:
                    assert any(
                        lo <= piece[axis].start and piece[axis].stop <= hi
                        for axis, lo, hi in strips
                    ), (rank, comp, piece)
                cover = np.zeros(shape, dtype=int)
                for piece in shell[comp] + interior[comp]:
                    cover[piece] += 1
                whole = np.zeros(shape, dtype=int)
                if regions[comp] is not None:
                    whole[regions[comp]] = 1
                assert np.array_equal(cover, whole), (rank, comp)
