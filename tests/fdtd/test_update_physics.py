"""Update-kernel correctness and physical sanity of the solver."""

import numpy as np
import pytest

from repro.apps.fdtd import (
    FDTDConfig,
    GaussianPulse,
    MaterialGrid,
    PointSource,
    Probe,
    VersionA,
    YeeGrid,
    field_energy,
)
from repro.apps.fdtd.constants import EPS0
from repro.apps.fdtd.grid import COMPONENTS, UPDATE_TRIMS
from repro.apps.fdtd.update import (
    intersect_local,
    local_update_regions,
    shift_region,
)
from repro.archetypes.mesh import BlockDecomposition


class TestRegionHelpers:
    def test_shift_region(self):
        region = (slice(1, 4), slice(0, 3))
        assert shift_region(region, 0, -1) == (slice(0, 3), slice(0, 3))
        assert shift_region(region, 1, 2) == (slice(1, 4), slice(2, 5))

    def test_intersect_local_interior_rank(self):
        d = BlockDecomposition((13, 13, 13), (2, 1, 1), ghost=1)
        # rank 1 owns x in [7, 13)
        region = intersect_local(d, 1, (slice(1, 12), slice(0, 13), slice(0, 13)))
        # local x: global 7..11 -> local 1..5 -> slice(1, 6)
        assert region[0] == slice(1, 6)
        assert region[1] == slice(1, 14)

    def test_intersect_local_empty(self):
        d = BlockDecomposition((12,), (2,), ghost=1)
        assert intersect_local(d, 1, (slice(0, 3),)) is None

    def test_local_regions_tile_global_region(self):
        grid = YeeGrid(shape=(10, 8, 6))
        d = BlockDecomposition(grid.node_shape, (2, 2, 1), ghost=1)
        for comp in UPDATE_TRIMS:
            cover = np.zeros(grid.node_shape, dtype=int)
            global_region = grid.update_region(comp)
            expected = np.zeros_like(cover)
            expected[global_region] = 1
            for rank in range(d.nprocs):
                local = local_update_regions(grid, d, rank)[comp]
                if local is None:
                    continue
                # map local region back to global indices
                g = d.ghost
                bounds = d.owned_bounds(rank)
                glob = tuple(
                    slice(s.start - g + a, s.stop - g + a)
                    for s, (a, b) in zip(local, bounds)
                )
                cover[glob] += 1
            np.testing.assert_array_equal(cover, expected)


class TestCausalityAndStability:
    def make_config(self, steps, **kw):
        grid = YeeGrid(shape=(14, 14, 14))
        src = PointSource("ez", (7, 7, 7), GaussianPulse(delay=6, spread=2))
        return FDTDConfig(grid=grid, steps=steps, sources=[src], **kw)

    def test_causality_distant_point_quiet_early(self):
        # With courant 0.99 in 3-D, light crosses one cell per ~1.75
        # steps; after 5 steps a probe 6 cells away must still be quiet.
        probe = Probe("ez", (13, 7, 7))
        config = self.make_config(steps=5, probes=[probe])
        VersionA(config).run()
        assert np.max(np.abs(probe.values())) < 1e-18

    def test_signal_arrives_eventually(self):
        probe = Probe("ez", (12, 7, 7))
        config = self.make_config(steps=30, probes=[probe])
        VersionA(config).run()
        assert np.max(np.abs(probe.values())) > 1e-12

    def test_stable_at_courant_limit(self):
        config = self.make_config(steps=120)
        result = VersionA(config).run()
        peak = max(np.abs(result.fields[c]).max() for c in COMPONENTS)
        assert np.isfinite(peak)
        assert peak < 1e3

    def test_pec_box_conserves_energy_after_source_off(self):
        config = self.make_config(steps=80, energy_every=1)
        result = VersionA(config).run()
        energies = dict(result.energy)
        # Pulse is over by ~step 15; thereafter a lossless PEC box
        # keeps energy constant up to leapfrog staggering wiggle.
        late = [energies[s] for s in range(30, 80)]
        assert max(late) > 0
        assert (max(late) - min(late)) / max(late) < 0.05

    def test_lossy_material_dissipates_energy(self):
        grid = YeeGrid(shape=(14, 14, 14))
        from repro.apps.fdtd import Material

        mats = MaterialGrid(grid).fill(Material(eps_r=1.0, sigma_e=0.05))
        src = PointSource("ez", (7, 7, 7), GaussianPulse(delay=6, spread=2))
        config = FDTDConfig(
            grid=grid, steps=80, sources=[src], materials=mats, energy_every=1
        )
        result = VersionA(config).run()
        energies = dict(result.energy)
        assert energies[70] < 0.5 * energies[20]

    def test_pec_scatterer_keeps_interior_e_zero(self):
        grid = YeeGrid(shape=(14, 14, 14))
        mats = MaterialGrid(grid).add_pec_box((9, 6, 6), (12, 9, 9))
        src = PointSource("ez", (4, 7, 7), GaussianPulse(delay=6, spread=2))
        config = FDTDConfig(grid=grid, steps=40, sources=[src], materials=mats)
        result = VersionA(config).run()
        inner = result.fields.ez[10, 7, 7]
        assert inner == 0.0
        # but the wave exists outside
        assert np.abs(result.fields.ez).max() > 1e-6

    def test_tangential_e_stays_zero_on_pec_walls(self):
        config = self.make_config(steps=40)
        fields = VersionA(config).run().fields
        assert np.all(fields.ez[0, :, :] == 0.0)
        assert np.all(fields.ez[-1, :, :] == 0.0)
        assert np.all(fields.ex[:, 0, :] == 0.0)
        assert np.all(fields.ey[:, :, -1] == 0.0)


class TestMurBoundary:
    def test_mur_absorbs_better_than_pec(self):
        # A zero-mean (Ricker) source: a Gaussian's DC content deposits
        # a static charge field around the source that dominates the
        # residual energy identically under both boundaries and would
        # mask the absorption.
        from repro.apps.fdtd import RickerWavelet

        def residual(boundary):
            grid = YeeGrid(shape=(16, 16, 16))
            src = PointSource("ez", (8, 8, 8), RickerWavelet(delay=10, spread=3))
            config = FDTDConfig(
                grid=grid, steps=150, sources=[src], boundary=boundary
            )
            result = VersionA(config).run()
            return field_energy(grid, result.fields)

        assert residual("mur1") < 0.05 * residual("pec")

    def test_mur_run_is_stable(self):
        grid = YeeGrid(shape=(12, 12, 12))
        src = PointSource("ez", (6, 6, 6), GaussianPulse(delay=8, spread=3))
        config = FDTDConfig(grid=grid, steps=200, sources=[src], boundary="mur1")
        result = VersionA(config).run()
        assert max(np.abs(result.fields[c]).max() for c in COMPONENTS) < 10.0

    def test_unknown_boundary_rejected(self):
        from repro.errors import FDTDError

        grid = YeeGrid(shape=(8, 8, 8))
        with pytest.raises(FDTDError, match="unknown boundary"):
            FDTDConfig(grid=grid, steps=5, boundary="liao")


class TestSourcesValidation:
    def test_source_on_boundary_rejected(self):
        from repro.errors import FDTDError

        grid = YeeGrid(shape=(8, 8, 8))
        with pytest.raises(FDTDError, match="outside the updated region"):
            FDTDConfig(
                grid=grid,
                steps=5,
                sources=[PointSource("ez", (0, 0, 0))],
            )

    def test_h_source_rejected(self):
        from repro.errors import FDTDError

        grid = YeeGrid(shape=(8, 8, 8))
        with pytest.raises(FDTDError, match="E-component"):
            FDTDConfig(
                grid=grid, steps=5, sources=[PointSource("hx", (4, 4, 4))]
            )

    def test_waveforms(self):
        from repro.apps.fdtd import RickerWavelet, SinusoidSource

        g = GaussianPulse(delay=10, spread=3)
        assert g(10) == 1.0
        assert g(0) < g(5) < g(10)
        r = RickerWavelet(delay=10, spread=3)
        assert r(10) == 1.0
        assert r(13) < 0  # sidelobe
        s = SinusoidSource(period_steps=20, ramp_steps=10)
        assert abs(s(0)) < 1e-12
        assert abs(s(45)) > 0.5
