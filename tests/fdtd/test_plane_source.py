"""Plane (sheet) source tests: multi-rank source injection."""

import numpy as np
import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    FDTDConfig,
    FieldSet,
    GaussianPulse,
    PlaneSource,
    PointSource,
    RickerWavelet,
    VersionA,
    YeeGrid,
    build_parallel_fdtd,
)
from repro.apps.fdtd.parallel import rank_passes
from repro.apps.fdtd.update import intersect_local
from repro.archetypes.mesh import BlockDecomposition, gather_array, local_like
from repro.errors import FDTDError
from repro.runtime import ThreadedEngine
from repro.util import bitwise_equal_arrays


def make_config(steps=12, shape=(14, 12, 10)):
    grid = YeeGrid(shape=shape)
    src = PlaneSource("ez", axis=0, index=3, waveform=RickerWavelet(delay=8, spread=3))
    return FDTDConfig(grid=grid, steps=steps, sources=[src])


class TestValidation:
    def test_component_checked(self):
        with pytest.raises(FDTDError, match="unknown component"):
            PlaneSource("zz", axis=0, index=3)

    def test_axis_checked(self):
        with pytest.raises(FDTDError, match="plane axis"):
            PlaneSource("ez", axis=5, index=3)

    def test_boundary_plane_rejected(self):
        grid = YeeGrid(shape=(8, 8, 8))
        # ez update range along x is [1, 8); index 0 is a boundary plane
        with pytest.raises(FDTDError, match="outside the updated range"):
            FDTDConfig(grid=grid, steps=4, sources=[PlaneSource("ez", 0, 0)])

    def test_global_region_is_one_plane(self):
        grid = YeeGrid(shape=(8, 8, 8))
        src = PlaneSource("ez", axis=1, index=4)
        region = src.global_region(grid)
        assert region[1] == slice(4, 5)
        assert region[0] == slice(1, 8)  # ez x-trim


class TestWavePhysics:
    def test_plane_front_is_flat(self):
        # Early in the run, Ez on a plane adjacent to the sheet is
        # uniform across the deep transverse interior — edge/boundary
        # diffraction (from the sheet's rim and the PEC walls) travels
        # at ~0.57 cells/step and cannot have reached it yet.
        grid = YeeGrid(shape=(16, 16, 16))
        src = PlaneSource(
            "ez", axis=0, index=6, waveform=RickerWavelet(delay=4, spread=2)
        )
        config = FDTDConfig(grid=grid, steps=6, sources=[src])
        result = VersionA(config).run()
        probe_plane = result.fields.ez[7, 6:-6, 6:-6]
        assert np.abs(probe_plane).max() > 0
        spread = probe_plane.max() - probe_plane.min()
        assert spread < 1e-9 * np.abs(probe_plane).max()

    def test_radiates_both_directions(self):
        config = make_config(steps=10, shape=(16, 12, 12))
        result = VersionA(config).run()
        left = np.abs(result.fields.ez[1, 6, 6])
        right = np.abs(result.fields.ez[5, 6, 6])
        assert left > 0 and right > 0


class TestParallelization:
    @pytest.mark.parametrize("pshape", [(2, 1, 1), (1, 2, 2), (2, 2, 2)])
    def test_bitwise_identity(self, pshape):
        config = make_config()
        seq = VersionA(config).run()
        par = build_parallel_fdtd(config, pshape, version="A")
        stores = par.run_simulated()
        hf = par.host_fields(stores)
        assert all(
            bitwise_equal_arrays(hf[c], seq.fields[c]) for c in COMPONENTS
        )

    def test_sheet_spans_multiple_ranks(self):
        # With the plane normal to x and a (1, 2, 2) process grid, ALL
        # four ranks own part of the sheet.
        grid = YeeGrid(shape=(14, 12, 10))
        decomp = BlockDecomposition(grid.node_shape, (1, 2, 2), ghost=1)
        src = PlaneSource("ez", axis=0, index=3)
        involved = [
            r
            for r in range(4)
            if intersect_local(decomp, r, src.global_region(grid)) is not None
        ]
        assert involved == [0, 1, 2, 3]

    def test_point_source_still_single_rank(self):
        grid = YeeGrid(shape=(14, 12, 10))
        decomp = BlockDecomposition(grid.node_shape, (2, 2, 1), ghost=1)
        src = PointSource("ez", (4, 4, 4))
        involved = [
            r
            for r in range(4)
            if intersect_local(decomp, r, src.global_region(grid)) is not None
        ]
        assert len(involved) == 1

    def test_point_source_region_is_one_node(self):
        grid = YeeGrid(shape=(14, 12, 10))
        src = PointSource("ez", (4, 5, 6))
        assert src.global_region(grid) == (
            slice(4, 5),
            slice(5, 6),
            slice(6, 7),
        )

    def test_local_applier_adds_same_values(self):
        grid = YeeGrid(shape=(10, 10, 10))
        decomp = BlockDecomposition(grid.node_shape, (2, 1, 1), ghost=1)
        src = PlaneSource("ez", axis=1, index=4, amplitude=2.5)
        # Add into each rank's zero array over its local region, gather,
        # compare with the addition over the global region on zeros.
        fields = FieldSet.zeros(grid)
        fields.ez[src.global_region(grid)] += src.value(5)
        locals_ = [local_like(decomp, r) for r in range(2)]
        for r in range(2):
            region = intersect_local(decomp, r, src.global_region(grid))
            if region is not None:
                locals_[r][region] += src.value(5)
        np.testing.assert_array_equal(
            gather_array(decomp, locals_), fields.ez
        )


def overlap_config(steps=10):
    """Mur, two sheets and two points; each decomposition below puts
    some drive pieces in the E shell and some in the interior."""
    return FDTDConfig(
        grid=YeeGrid(shape=(12, 10, 8)),
        steps=steps,
        boundary="mur1",
        sources=[
            PlaneSource(
                "ex", axis=2, index=3, waveform=RickerWavelet(delay=5, spread=2)
            ),
            PlaneSource("ez", axis=0, index=7, amplitude=0.5),
            PointSource("ez", (7, 3, 2), GaussianPulse(delay=5, spread=2)),
            PointSource("ey", (6, 6, 2), GaussianPulse(delay=4, spread=2)),
        ],
    )


class TestOverlapSplit:
    """The overlap refinement splits every drive along the E shell."""

    @pytest.mark.parametrize("pshape", [(1, 2, 2), (2, 2, 2)])
    @pytest.mark.parametrize("engine", ["simulated", "threaded"])
    def test_bitwise_identity(self, pshape, engine):
        config = overlap_config()
        seq = VersionA(config).run()
        par = build_parallel_fdtd(config, pshape, version="A", overlap=True)
        if engine == "simulated":
            stores = par.run_simulated()
        else:
            stores = ThreadedEngine().run(par.to_parallel()).stores
        hf = par.host_fields(stores)
        assert all(
            bitwise_equal_arrays(hf[c], seq.fields[c]) for c in COMPONENTS
        )

    @pytest.mark.parametrize("pshape", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_drive_pieces_partition_each_rank(self, pshape):
        config = overlap_config()
        grid = config.grid
        decomp = BlockDecomposition(grid.node_shape, pshape, ghost=1)
        # (rank, pass) pairs driving each point source
        point_drives = {
            i: [] for i, s in enumerate(config.sources) if isinstance(s, PointSource)
        }
        for rank in range(decomp.nprocs):
            (whole,) = rank_passes(config, decomp, rank, None, overlap=False)
            shell, interior = rank_passes(config, decomp, rank, None, overlap=True)
            shape = local_like(decomp, rank).shape
            for i, src in enumerate(config.sources):
                expected = np.zeros(shape, dtype=int)
                for s, region in whole.drives:
                    if s is src:
                        expected[region] += 1
                got = np.zeros(shape, dtype=int)
                for name, rank_pass in (("shell", shell), ("interior", interior)):
                    for s, piece in rank_pass.drives:
                        if s is src:
                            got[piece] += 1
                            if i in point_drives:
                                point_drives[i].append((rank, name))
                # every driven node of the rank once, nothing else
                assert np.array_equal(got, expected), (rank, src)
        for i, drives in point_drives.items():
            assert len(drives) == 1, (config.sources[i], drives)
