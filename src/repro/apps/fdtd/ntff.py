"""Near-field to far-field transformation (paper section 4.1).

"This part of the computation uses the above-calculated electric and
magnetic fields to compute radiation vector potentials at each time
step by integrating over a closed surface near the boundary of the
3-dimensional grid.  The electric and magnetic fields at a particular
point on the integration surface at a particular time step affect the
radiation vector potential at some future time step (depending on the
point's position); thus, each calculated vector potential is a double
sum, over time steps and over points on the integration surface."

This module implements exactly that structure:

* a closed **integration surface**: the box of nodes ``gap`` cells in
  from the outer boundary, traversed face by face in a fixed order;
* **equivalent currents** at each surface node: ``J = n x H`` and
  ``M = -n x E`` (components sampled at the node — no staggered-grid
  interpolation, a documented simplification that preserves the
  double-sum structure the experiment is about);
* per observation direction ``r_hat``, a **retarded accumulation**:
  the step-``n`` contribution of point ``p`` lands in time bin
  ``n + delay(p)`` with ``delay = round(r_hat . (p - center) / (c0 dt))``
  shifted to be non-negative;
* the **radiation vector potentials** ``A`` (from J) and ``F`` (from M)
  as arrays of shape ``(ndirections, nbins, 3)``.

Summation order is the whole point of experiment E2.  The sequential
code accumulates in global traversal order (face order, C-order within
each face).  The parallelized code gives each grid process the surface
points it owns, accumulated in the same per-point order, and then sums
the per-process partials in rank order — a pure *reordering* of the
double sum, which floating-point addition does not forgive.  The class
supports both through ``restrict``: pass a decomposition and rank to
build a process-local accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.fdtd.constants import C0
from repro.apps.fdtd.grid import YeeGrid
from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.errors import GeometryError

__all__ = ["NTFFConfig", "NTFFAccumulator", "default_directions"]

# Unit normals per (axis, side).
_NORMALS = {
    (0, -1): np.array([-1.0, 0.0, 0.0]),
    (0, 1): np.array([1.0, 0.0, 0.0]),
    (1, -1): np.array([0.0, -1.0, 0.0]),
    (1, 1): np.array([0.0, 1.0, 0.0]),
    (2, -1): np.array([0.0, 0.0, -1.0]),
    (2, 1): np.array([0.0, 0.0, 1.0]),
}

#: The field components an accumulator reads, H then E.
_FIELDS = ("hx", "hy", "hz", "ex", "ey", "ez")

#: Fixed face traversal order (axis, side) — part of the summation-order
#: contract between sequential and parallel versions.
FACE_ORDER = [(0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)]

#: Unit normal of each face in FACE_ORDER.
_FACE_NORMALS = np.array([_NORMALS[face] for face in FACE_ORDER])


def default_directions() -> np.ndarray:
    """A small set of observation directions (unit vectors): the +x
    forward direction, +z, and one oblique."""
    dirs = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0] / np.sqrt(3.0),
        ]
    )
    return dirs


@dataclass(frozen=True)
class NTFFConfig:
    """Far-field configuration."""

    gap: int = 3  # surface inset from the outer node boundary, in nodes
    directions: np.ndarray = field(default_factory=default_directions)

    def surface_bounds(self, grid: YeeGrid) -> list[tuple[int, int]]:
        """Per-axis [lo, hi] (inclusive) node indices of the surface box."""
        bounds = []
        for n in grid.shape:
            lo, hi = self.gap, n - self.gap
            if hi - lo < 1:
                raise GeometryError(
                    f"NTFF gap {self.gap} leaves no surface inside a "
                    f"{grid.shape}-cell grid"
                )
            bounds.append((lo, hi))
        return bounds


class NTFFAccumulator:
    """Retarded accumulation of radiation vector potentials.

    Parameters
    ----------
    grid, config:
        Geometry and observation directions.
    steps:
        Number of time steps that will be accumulated (sizes the bins).
    restrict:
        ``None`` for the full surface (sequential code), or
        ``(decomposition, rank)`` to keep only the surface nodes the
        rank owns — the per-process accumulator of the parallelized
        far-field calculation.

    Under ``restrict`` the field arrays are the rank's ghosted local
    arrays: global node indices are shifted by ``ghost - owned_start``
    per axis and the gather addresses ``decomp.local_shape(rank)``
    instead of ``grid.node_shape`` (``self.shape`` either way).
    """

    def __init__(
        self,
        grid: YeeGrid,
        config: NTFFConfig,
        steps: int,
        restrict: tuple[BlockDecomposition, int] | None = None,
    ):
        self.grid = grid
        self.config = config
        self.steps = steps
        self.directions = np.asarray(config.directions, dtype=np.float64)
        ndirs = len(self.directions)

        bounds = config.surface_bounds(grid)
        center = np.array([(lo + hi) / 2.0 for lo, hi in bounds])
        spacing = np.asarray(grid.spacing)

        if restrict is None:
            owned = [(0, n + 1) for n in grid.shape]
            offset = np.zeros(3, dtype=np.int64)
            self.shape = tuple(grid.node_shape)
        else:
            decomp, rank = restrict
            owned = decomp.owned_bounds(rank)
            offset = np.array(
                [decomp.ghost - a for (a, b) in owned], dtype=np.int64
            )
            self.shape = tuple(decomp.local_shape(rank))

        # Global delay range must be identical on every rank, so compute
        # it from the full surface regardless of restriction.
        # Raw delays span [-max_delay, +max_delay]; after the
        # +max_delay shift, bins run up to (steps-1) + 2*max_delay.
        self._max_delay = self._global_max_delay(bounds, center, spacing)
        self.nbins = steps + 2 * self._max_delay

        # Per face: node indices (C-order) and per-direction delay bins;
        # then all faces concatenated in FACE_ORDER, so one flat point
        # axis carries the traversal order (seeded empty: a rank may own
        # no surface point).  Each point remembers its face for the
        # normal and the area element.
        idxs = [np.empty((0, 3), np.int64)]
        delays = [np.empty((ndirs, 0), np.int64)]
        faces = [np.empty(0, np.int8)]
        face_dA = []
        for face, (axis, side) in enumerate(FACE_ORDER):
            transverse = [a for a in range(3) if a != axis]
            face_dA.append(spacing[transverse[0]] * spacing[transverse[1]])
            plane = bounds[axis][0] if side == -1 else bounds[axis][1]
            ranges = []
            for a in range(3):
                if a == axis:
                    ranges.append(np.array([plane]))
                else:
                    lo, hi = bounds[a]
                    lo = max(lo, owned[a][0])
                    hi = min(hi, owned[a][1] - 1)
                    if lo > hi:
                        ranges = None
                        break
                    ranges.append(np.arange(lo, hi + 1))
            if ranges is None:
                continue
            if restrict is not None and not (
                owned[axis][0] <= plane < owned[axis][1]
            ):
                continue
            ii, jj, kk = np.meshgrid(*ranges, indexing="ij")
            idx = np.stack(
                [ii.ravel(), jj.ravel(), kk.ravel()], axis=1
            )  # (npoints, 3), C-order traversal
            if idx.shape[0] == 0:
                continue
            phys = (idx - center) * spacing  # (npoints, 3)
            face_delays = np.empty((ndirs, idx.shape[0]), dtype=np.int64)
            for d, rhat in enumerate(self.directions):
                face_delays[d] = np.rint(
                    (phys @ rhat) / (C0 * grid.dt)
                ).astype(np.int64)
            idxs.append(idx)
            delays.append(face_delays + self._max_delay)  # non-negative
            faces.append(np.full(len(idx), face, np.int8))

        idx = np.concatenate(idxs)
        #: surface points this accumulator integrates
        self.npoints = idx.shape[0]
        #: linear index of every surface point into an array of ``shape``
        self._gather = np.ravel_multi_index(tuple((idx + offset).T), self.shape)
        #: per-point face, as an index into FACE_ORDER
        self._face = np.concatenate(faces)
        #: area element of each face in FACE_ORDER
        self._face_dA = np.array(face_dA)
        #: per-direction, per-point delay bin (ndirs, npoints)
        self._delays = np.concatenate(delays, axis=1)
        self._work: tuple | None = None  # see _work_arrays

        #: radiation vector potential from J = n x H
        self.A = np.zeros((ndirs, self.nbins, 3))
        #: radiation vector potential from M = -n x E
        self.F = np.zeros((ndirs, self.nbins, 3))

    def __getstate__(self):
        # The work arrays are pure cache: an accumulator captured in a
        # process body crosses to a worker without them.
        return {**self.__dict__, "_work": None}

    def _global_max_delay(self, bounds, center, spacing) -> int:
        corners = np.array(
            [
                [b[i] for b, i in zip(bounds, (c0, c1, c2))]
                for c0 in (0, 1)
                for c1 in (0, 1)
                for c2 in (0, 1)
            ],
            dtype=np.float64,
        )
        phys = (corners - center) * spacing
        worst = np.max(np.abs(phys @ self.directions.T))
        return int(np.rint(worst / (C0 * self.grid.dt))) + 1

    # -- accumulation ----------------------------------------------------------

    def accumulate(self, arrays, step: int) -> None:
        """Add step ``step``'s surface contributions (the inner sum of
        the double sum) into this accumulator's own ``A``/``F``.

        ``arrays`` maps component names to arrays of ``self.shape``.
        """
        self.accumulate_into(arrays, step, self.A, self.F)

    def accumulate_into(
        self, arrays, step: int, A: np.ndarray, F: np.ndarray
    ) -> None:
        """Accumulate into caller-owned potential arrays.

        Used by the parallelized versions, whose per-process partial
        potentials live in the process *store* (so that each run of the
        transformed system starts from a fresh zero state and the final
        reduction is an ordinary archetype reduction over store
        variables).  ``A`` and ``F`` may be any views of shape
        ``(ndirs, nbins, 3)``; the sums land in them.
        """
        potential_shape = (len(self.directions), self.nbins, 3)
        if A.shape != potential_shape or F.shape != potential_shape:
            raise GeometryError(
                f"NTFF potentials have shapes {A.shape} and {F.shape}, "
                f"expected {potential_shape}"
            )
        fields = [arrays[c] for c in _FIELDS]
        if any(f.shape != self.shape for f in fields):
            raise GeometryError(
                f"NTFF fields have shapes {[f.shape for f in fields]}, the "
                f"accumulator gathers from arrays of shape {self.shape}"
            )
        scatter, dA, na, nb, gathered, lhs, rhs, values = self._work_arrays()
        np.stack([f.take(self._gather) for f in fields], out=gathered)
        # np.cross's elementwise arithmetic for every point at once, v = H
        # then E: (n x v)_c = n_{c+1} v_{c+2} - n_{c+2} v_{c+1}.  The roll
        # indices are in range; mode="clip" skips take's buffered ``out``.
        v = gathered.reshape(2, 3, self.npoints)
        np.take(v, [2, 0, 1], axis=1, out=lhs, mode="clip")
        np.take(v, [1, 2, 0], axis=1, out=rhs, mode="clip")
        np.multiply(na, lhs, out=lhs)
        np.multiply(nb, rhs, out=rhs)
        np.subtract(lhs, rhs, out=lhs)
        np.negative(lhs[1], out=lhs[1])  # J = n x H, M = -n x E
        # One copy of the currents times dA per direction, J then M.
        np.multiply(lhs[0], dA, out=values)
        _scatter_add(A, 3 * step, scatter, values.reshape(-1))
        np.multiply(lhs[1], dA, out=values)
        _scatter_add(F, 3 * step, scatter, values.reshape(-1))
        if step == self.steps - 1:
            self._work = None  # a finished run keeps no work arrays

    def _work_arrays(self) -> tuple:
        """The scatter index, the per-point area element and rolled
        normals, and the per-step buffers, built on first use.

        The scatter index addresses a flat ``(ndirs, nbins, 3)`` potential
        at ``(d * nbins + delay) * 3 + c`` for step 0, laid out
        (direction, component, point), so each ``(d, bin, c)`` meets its
        addends in point order; step ``n`` shifts the flat potential by
        ``3 * n``.  The buffers are fully overwritten every step, so one
        accumulator must not be run by two threads at once (each rank
        has its own).  They live from a run's first step to its last
        (``steps - 1``): an idle accumulator, kept between runs or
        resident in a worker, holds none.
        """
        if self._work is None:
            ndirs, n = self._delays.shape
            bins = (np.arange(ndirs)[:, None] * self.nbins + self._delays) * 3
            scatter = (bins[:, None, :] + np.arange(3)[:, None]).ravel()
            normals = _FACE_NORMALS[self._face].T  # (3, npoints)
            self._work = (
                scatter,
                self._face_dA[self._face],
                normals[[1, 2, 0]],
                normals[[2, 0, 1]],
                np.empty((6, n)),
                np.empty((2, 3, n)),
                np.empty((2, 3, n)),
                np.empty((ndirs, 3, n)),
            )
        return self._work

    # -- results ---------------------------------------------------------------

    def potentials(self) -> tuple[np.ndarray, np.ndarray]:
        """The (A, F) radiation vector potential arrays."""
        return self.A, self.F

    def reset(self) -> None:
        self.A[...] = 0.0
        self.F[...] = 0.0


def _scatter_add(target: np.ndarray, shift: int, index, values) -> None:
    """``np.add.at`` on ``target`` seen flat and shifted by ``shift``.

    ``np.add.at`` applies duplicate indices in element order, so each
    bin receives its addends in point order — face by face, C-order
    within a face — the summation-order contract of the module
    docstring.  A flat view is the fast 1-D path; when ``target``'s
    strides allow none, ``reshape`` copies and the sums are written
    back, never left in the copy.
    """
    flat = target.reshape(-1)
    np.add.at(flat[shift:], index, values)
    if not np.may_share_memory(flat, target):
        target[...] = flat.reshape(target.shape)
