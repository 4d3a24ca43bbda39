"""Yee grid geometry, stability bookkeeping, and material maps."""

import numpy as np
import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    FieldSet,
    Material,
    MaterialGrid,
    YeeGrid,
)
from repro.apps.fdtd.constants import C0, EPS0, ETA0, MU0
from repro.errors import FDTDError, GeometryError, StabilityError


class TestConstants:
    def test_relations(self):
        assert np.isclose(1.0 / np.sqrt(EPS0 * MU0), C0)
        assert np.isclose(ETA0, np.sqrt(MU0 / EPS0))


class TestYeeGrid:
    def test_default_dt_is_courant_fraction(self):
        grid = YeeGrid(shape=(8, 8, 8), courant_fraction=0.5)
        assert np.isclose(grid.dt, 0.5 * grid.dt_max)

    def test_dt_above_limit_rejected(self):
        limit = YeeGrid(shape=(8, 8, 8)).dt_max
        with pytest.raises(StabilityError, match="Courant"):
            YeeGrid(shape=(8, 8, 8), dt=1.01 * limit)

    def test_explicit_stable_dt_accepted(self):
        limit = YeeGrid(shape=(8, 8, 8)).dt_max
        grid = YeeGrid(shape=(8, 8, 8), dt=0.9 * limit)
        assert grid.dt == 0.9 * limit

    def test_tiny_grid_rejected(self):
        with pytest.raises(FDTDError, match="at least 2 cells"):
            YeeGrid(shape=(1, 8, 8))

    def test_node_shape(self):
        assert YeeGrid(shape=(4, 5, 6)).node_shape == (5, 6, 7)

    def test_anisotropic_spacing_courant(self):
        grid = YeeGrid(shape=(8, 8, 8), spacing=(1e-2, 2e-2, 4e-2))
        expected = 1.0 / (
            C0 * np.sqrt(1e4 + 2.5e3 + 625.0)
        )
        assert np.isclose(grid.dt_max, expected)

    @pytest.mark.parametrize("comp", COMPONENTS)
    def test_update_regions_inside_node_grid(self, comp):
        grid = YeeGrid(shape=(6, 7, 8))
        region = grid.update_region(comp)
        for s, n in zip(region, grid.node_shape):
            assert 0 <= s.start < s.stop <= n

    def test_e_regions_exclude_tangential_boundary(self):
        grid = YeeGrid(shape=(6, 6, 6))
        ex = grid.update_region("ex")
        assert ex[1].start == 1 and ex[1].stop == 6  # j in [1, ny)
        assert ex[2].start == 1 and ex[2].stop == 6
        assert ex[0].start == 0 and ex[0].stop == 6  # i in [0, nx)

    def test_h_regions_cover_valid_range(self):
        grid = YeeGrid(shape=(6, 6, 6))
        hx = grid.update_region("hx")
        assert hx[0] == slice(0, 7)
        assert hx[1] == slice(0, 6)
        assert hx[2] == slice(0, 6)


class TestFieldSet:
    def test_zeros_and_access(self):
        grid = YeeGrid(shape=(4, 4, 4))
        fields = FieldSet.zeros(grid)
        assert fields["ex"].shape == grid.node_shape
        fields["ex"][0, 0, 0] = 5.0
        assert fields.ex[0, 0, 0] == 5.0

    def test_copy_is_deep(self):
        fields = FieldSet.zeros(YeeGrid(shape=(4, 4, 4)))
        clone = fields.copy()
        fields.ez[1, 1, 1] = 3.0
        assert clone.ez[1, 1, 1] == 0.0

    def test_components_mapping(self):
        fields = FieldSet.zeros(YeeGrid(shape=(4, 4, 4)))
        assert set(fields.components()) == set(COMPONENTS)


class TestMaterial:
    def test_invalid_material(self):
        with pytest.raises(GeometryError):
            Material(eps_r=-1.0)
        with pytest.raises(GeometryError):
            Material(sigma_e=-0.5)


class TestMaterialGrid:
    def test_vacuum_coefficients(self):
        grid = YeeGrid(shape=(4, 4, 4))
        coefs = MaterialGrid(grid).coefficients()
        assert np.allclose(coefs.ca["ex"], 1.0)
        assert np.allclose(coefs.cb["ex"], grid.dt / EPS0)
        assert np.allclose(coefs.da["hx"], 1.0)
        assert np.allclose(coefs.db["hx"], grid.dt / MU0)

    def test_coefficient_arrays_are_constants(self):
        # Computed once, never assigned again: handed out read-only, one
        # array per name (nothing aliases, so freezing one freezes one).
        arrays = MaterialGrid(YeeGrid(shape=(4, 4, 4))).coefficients().arrays()
        assert len(arrays) == 12
        assert len({id(a) for a in arrays.values()}) == 12
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 0.0

    def test_lossy_dielectric_coefficients(self):
        grid = YeeGrid(shape=(4, 4, 4))
        mats = MaterialGrid(grid).fill(Material(eps_r=4.0, sigma_e=0.02))
        coefs = mats.coefficients()
        k = 0.02 * grid.dt / (2 * 4.0 * EPS0)
        assert np.allclose(coefs.ca["ez"], (1 - k) / (1 + k))
        assert np.allclose(coefs.cb["ez"], (grid.dt / (4.0 * EPS0)) / (1 + k))
        assert (coefs.ca["ez"] < 1.0).all()

    def test_box_paints_region_only(self):
        grid = YeeGrid(shape=(8, 8, 8))
        mats = MaterialGrid(grid).add_box((2, 2, 2), (5, 5, 5), Material(eps_r=9.0))
        assert mats.eps_r[3, 3, 3] == 9.0
        assert mats.eps_r[0, 0, 0] == 1.0
        assert mats.eps_r[5, 5, 5] == 1.0  # hi bound exclusive

    def test_box_out_of_range(self):
        grid = YeeGrid(shape=(8, 8, 8))
        with pytest.raises(GeometryError, match="does not fit"):
            MaterialGrid(grid).add_box((0, 0, 0), (20, 3, 3), Material())

    def test_sphere(self):
        grid = YeeGrid(shape=(10, 10, 10))
        mats = MaterialGrid(grid).add_sphere((5, 5, 5), 2.5, Material(mu_r=2.0))
        assert mats.mu_r[5, 5, 5] == 2.0
        assert mats.mu_r[5, 5, 7] == 2.0
        assert mats.mu_r[0, 0, 0] == 1.0

    def test_sphere_missing_grid(self):
        grid = YeeGrid(shape=(4, 4, 4))
        with pytest.raises(GeometryError):
            MaterialGrid(grid).add_sphere((100, 100, 100), 0.5, Material())

    def test_pec_zeroes_e_coefficients(self):
        grid = YeeGrid(shape=(8, 8, 8))
        mats = MaterialGrid(grid).add_pec_box((3, 3, 3), (5, 5, 5))
        coefs = mats.coefficients()
        assert coefs.ca["ex"][4, 4, 4] == 0.0
        assert coefs.cb["ex"][4, 4, 4] == 0.0
        assert coefs.ca["ex"][0, 0, 0] == 1.0
        # H coefficients untouched
        assert coefs.da["hx"][4, 4, 4] == 1.0

    def test_pec_plate(self):
        grid = YeeGrid(shape=(8, 8, 8))
        mats = MaterialGrid(grid).add_pec_plate(2, 4, (1, 1), (6, 6))
        assert mats.pec[3, 3, 4]
        assert not mats.pec[3, 3, 5]

    def test_coefficient_arrays_names(self):
        grid = YeeGrid(shape=(4, 4, 4))
        arrays = MaterialGrid(grid).coefficients().arrays()
        assert set(arrays) == {
            "ca_ex", "cb_ex", "ca_ey", "cb_ey", "ca_ez", "cb_ez",
            "da_hx", "db_hx", "da_hy", "db_hy", "da_hz", "db_hz",
        }
