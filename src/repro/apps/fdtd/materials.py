"""Frequency-independent dielectric and magnetic materials.

The Version C user's manual the paper cites covers "scattering from
frequency-independent dielectric and magnetic materials": each cell has
relative permittivity ``eps_r``, electric conductivity ``sigma_e``,
relative permeability ``mu_r``, and magnetic loss ``sigma_m``.  The
standard lossy-material update coefficients follow:

* E components: ``e_new = ca * e + cb * curl(H)`` with
  ``ca = (1 - k) / (1 + k)``, ``cb = (dt / eps) / (1 + k)``,
  ``k = sigma_e * dt / (2 eps)``;
* H components: ``h_new = da * h + db * curl(E)`` with the dual
  expressions in ``mu`` and ``sigma_m``.

Perfect electric conductors are represented by ``ca = cb = 0`` at the
component nodes inside the conductor: the tangential E field stays
exactly zero there, forever — no special-case code in the update loop.

Simplification (documented in DESIGN.md): coefficient arrays are
sampled on the node grid from the cell containing each node (no
half-cell spatial averaging of material constants).  The parallelization
methodology is indifferent to the sampling rule — coefficients are just
more distributed read-only grid data — and the solver remains a faithful
frequency-independent-material FDTD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.fdtd.constants import EPS0, MU0
from repro.apps.fdtd.grid import E_COMPONENTS, H_COMPONENTS, YeeGrid
from repro.errors import GeometryError

__all__ = ["Material", "VACUUM", "MaterialGrid", "CoefficientSet"]


@dataclass(frozen=True)
class Material:
    """A frequency-independent material."""

    eps_r: float = 1.0
    mu_r: float = 1.0
    sigma_e: float = 0.0  # electric conductivity [S/m]
    sigma_m: float = 0.0  # magnetic loss [ohm/m]
    name: str = "material"

    def __post_init__(self) -> None:
        if self.eps_r <= 0 or self.mu_r <= 0:
            raise GeometryError(
                f"{self.name}: eps_r and mu_r must be positive"
            )
        if self.sigma_e < 0 or self.sigma_m < 0:
            raise GeometryError(f"{self.name}: losses must be non-negative")


VACUUM = Material(name="vacuum")


@dataclass
class CoefficientSet:
    """Per-component update coefficient arrays (all node-shaped).

    ``ca[c]``/``cb[c]`` for the E components, ``da[c]``/``db[c]`` for
    the H components.  :meth:`MaterialGrid.coefficients` hands the
    twelve arrays out *read-only*: they are computed once and never
    assigned again, which is what makes them constants
    (:func:`repro.util.is_constant`) that no engine copies per run.
    """

    ca: dict[str, np.ndarray] = field(default_factory=dict)
    cb: dict[str, np.ndarray] = field(default_factory=dict)
    da: dict[str, np.ndarray] = field(default_factory=dict)
    db: dict[str, np.ndarray] = field(default_factory=dict)

    def arrays(self) -> dict[str, np.ndarray]:
        """Flat name -> array mapping (names like ``ca_ex``)."""
        out: dict[str, np.ndarray] = {}
        for comp in E_COMPONENTS:
            out[f"ca_{comp}"] = self.ca[comp]
            out[f"cb_{comp}"] = self.cb[comp]
        for comp in H_COMPONENTS:
            out[f"da_{comp}"] = self.da[comp]
            out[f"db_{comp}"] = self.db[comp]
        return out


class MaterialGrid:
    """Material maps over the node grid, plus geometry builders.

    Build the scene by painting materials into boxes and spheres (later
    paints overwrite earlier ones), optionally add perfect conductors,
    then call :meth:`coefficients` for the update coefficient arrays.
    """

    def __init__(self, grid: YeeGrid):
        self.grid = grid
        shape = grid.node_shape
        self.eps_r = np.ones(shape)
        self.mu_r = np.ones(shape)
        self.sigma_e = np.zeros(shape)
        self.sigma_m = np.zeros(shape)
        self.pec = np.zeros(shape, dtype=bool)

    # -- geometry builders ----------------------------------------------------

    def _check_box(self, lo: tuple[int, int, int], hi: tuple[int, int, int]):
        for a, b, n in zip(lo, hi, self.grid.node_shape):
            if not 0 <= a < b <= n:
                raise GeometryError(
                    f"box [{lo}, {hi}) does not fit node grid "
                    f"{self.grid.node_shape}"
                )

    def fill(self, material: Material) -> "MaterialGrid":
        """Paint the whole domain."""
        self.eps_r[...] = material.eps_r
        self.mu_r[...] = material.mu_r
        self.sigma_e[...] = material.sigma_e
        self.sigma_m[...] = material.sigma_m
        return self

    def add_box(
        self,
        lo: tuple[int, int, int],
        hi: tuple[int, int, int],
        material: Material,
    ) -> "MaterialGrid":
        """Paint a rectangular block of ``material`` over node indices
        ``lo`` (inclusive) to ``hi`` (exclusive)."""
        self._check_box(lo, hi)
        region = tuple(slice(a, b) for a, b in zip(lo, hi))
        self.eps_r[region] = material.eps_r
        self.mu_r[region] = material.mu_r
        self.sigma_e[region] = material.sigma_e
        self.sigma_m[region] = material.sigma_m
        return self

    def add_sphere(
        self,
        center: tuple[float, float, float],
        radius: float,
        material: Material,
    ) -> "MaterialGrid":
        """Paint a sphere (node-index coordinates) of ``material``."""
        if radius <= 0:
            raise GeometryError(f"sphere radius must be positive, got {radius}")
        idx = np.indices(self.grid.node_shape)
        dist2 = sum(
            (idx[a] - center[a]) ** 2 for a in range(3)
        )
        mask = dist2 <= radius * radius
        if not mask.any():
            raise GeometryError("sphere covers no grid node")
        self.eps_r[mask] = material.eps_r
        self.mu_r[mask] = material.mu_r
        self.sigma_e[mask] = material.sigma_e
        self.sigma_m[mask] = material.sigma_m
        return self

    def add_pec_box(
        self, lo: tuple[int, int, int], hi: tuple[int, int, int]
    ) -> "MaterialGrid":
        """Mark a block as perfect electric conductor."""
        self._check_box(lo, hi)
        region = tuple(slice(a, b) for a, b in zip(lo, hi))
        self.pec[region] = True
        return self

    def add_pec_plate(
        self, axis: int, index: int, lo2d: tuple[int, int], hi2d: tuple[int, int]
    ) -> "MaterialGrid":
        """A one-node-thick PEC plate normal to ``axis`` at ``index``."""
        lo = list(lo2d)
        hi = list(hi2d)
        lo.insert(axis, index)
        hi.insert(axis, index + 1)
        return self.add_pec_box(tuple(lo), tuple(hi))

    # -- coefficients ----------------------------------------------------------

    def coefficients(self) -> CoefficientSet:
        """The six (ca, cb) / (da, db) coefficient-array pairs."""
        dt = self.grid.dt
        eps = self.eps_r * EPS0
        mu = self.mu_r * MU0
        ke = self.sigma_e * dt / (2.0 * eps)
        km = self.sigma_m * dt / (2.0 * mu)
        ca = (1.0 - ke) / (1.0 + ke)
        cb = (dt / eps) / (1.0 + ke)
        da = (1.0 - km) / (1.0 + km)
        db = (dt / mu) / (1.0 + km)
        # PEC: freeze E at zero.
        ca = np.where(self.pec, 0.0, ca)
        cb = np.where(self.pec, 0.0, cb)
        out = CoefficientSet()
        for comp in E_COMPONENTS:
            out.ca[comp] = ca.copy()
            out.cb[comp] = cb.copy()
        for comp in H_COMPONENTS:
            out.da[comp] = da.copy()
            out.db[comp] = db.copy()
        for arr in out.arrays().values():
            arr.flags.writeable = False
        return out
