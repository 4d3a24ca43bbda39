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
  double-sum structure the experiment is about).  A face normal is
  ``+-e_a``, so each current component is one signed field value
  (``+-H_b``, ``+-E_b``) or zero, and the accumulator gathers the
  signed values instead of evaluating the cross product.  For finite
  fields that is bitwise the cross product's sum: a sign flip is exact,
  and a zero addend, of either sign, leaves a bin unchanged, because a
  potential starts at +0.0 and a round-to-nearest sum never turns it
  into -0.0.  A NaN or infinite field value no longer reaches the
  normal component, where the cross product's ``0 * v`` made it NaN;
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


def _face_terms() -> tuple:
    """Per face in FACE_ORDER, the two current components that are not
    identically zero, as ``(component, field row, sign)`` in component
    order.

    ``(n x v)_c = n_{c+1} v_{c+2} - n_{c+2} v_{c+1}``: with ``n = s e_a``
    one term survives for each ``c != a`` (``s v_{a+1}`` at ``c = a -
    1``, ``-s v_{a+2}`` at ``c = a + 1``) and none for ``c = a``.
    """
    terms = []
    for axis, side in FACE_ORDER:
        n = _NORMALS[(axis, side)].tolist()
        terms.append(
            tuple(
                (c, (c + 2) % 3, n[(c + 1) % 3])
                if n[(c + 1) % 3]
                else (c, (c + 1) % 3, -n[(c + 2) % 3])
                for c in range(3)
                if c != axis
            )
        )
    return tuple(terms)


#: ``(component, field row, sign)`` of each face's nonzero currents.
_FACE_TERMS = _face_terms()


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
        scatter, takes, coef, current, values = self._work_arrays()
        # Each current component is one signed field value times dA
        # (module docstring): per face and term, one take of that field.
        for row, where, j, m in takes:
            fields[row].take(where, out=j, mode="clip")  # in range: no buffer
            fields[row + 3].take(where, out=m, mode="clip")
        np.multiply(current, coef, out=current)
        for potential, addends in zip((A, F), current):
            np.copyto(values, addends)  # once per direction
            _scatter_add(potential, 3 * step, scatter, values.reshape(-1))
        if step == self.steps - 1:
            self._work = None  # a finished run keeps no work arrays

    def _work_arrays(self) -> tuple:
        """The scatter index, the bound takes and signed area elements
        of every current component that is not identically zero, and
        the per-step buffers, built on first use.

        A point has two such components (:data:`_FACE_TERMS`).  Their
        addends are laid out (face, term, point): per face and term one
        ``take`` of one field (H for J, E for M) into a contiguous piece
        of ``current``, times the term's sign and dA (``M = -n x E``
        flips it again).  The scatter index addresses a flat ``(ndirs,
        nbins, 3)`` potential at ``(d * nbins + delay) * 3 + c`` for step
        0, laid out (direction, face, term, point): a face has one term
        per ``c``, so each ``(d, bin, c)`` meets its addends in point
        order; step ``n`` shifts the flat potential by ``3 * n``.  The
        buffers are fully overwritten every step, so one accumulator
        must not be run by two threads at once (each rank has its own).
        They live from a run's first step to its last (``steps - 1``):
        an idle accumulator, kept between runs or resident in a worker,
        holds none.
        """
        if self._work is None:
            ndirs, n = self._delays.shape
            current = np.empty((2, 2 * n))
            # Points are concatenated face by face: face f owns [lo, hi),
            # and its two terms fill [2 lo, lo + hi) and [lo + hi, 2 hi).
            bounds = np.searchsorted(self._face, np.arange(len(FACE_ORDER) + 1))
            takes, point, comp, coef = [], [], [], []
            for face, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                where = self._gather[lo:hi]
                for base, (c, row, sign) in zip((lo, hi), _FACE_TERMS[face]):
                    j, m = current[:, base + lo : base + hi]
                    takes.append((row, where, j, m))
                    point.append(np.arange(lo, hi))
                    comp.append(np.full(hi - lo, c))
                    coef.append(np.full(hi - lo, sign * self._face_dA[face]))
            point, comp, coef = (np.concatenate(a) for a in (point, comp, coef))
            bins = (np.arange(ndirs)[:, None] * self.nbins + self._delays) * 3
            self._work = (
                (bins[:, point] + comp).ravel(),
                takes,
                np.stack([coef, -coef]),
                current,
                np.empty((ndirs, 2 * n)),
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

    ``index`` and ``values`` must be 1-D and of one length
    (:class:`~repro.errors.GeometryError` otherwise): NumPy 2.4.6's
    ``np.add.at`` with a 2-D index and 1-D values does not refuse them
    but writes garbage: ``np.add.at(t, [[0, 1], [5, 6]], [1., 2.])``
    leaves arbitrary values (1e+209 in one run) in ``t[5:7]``.
    """
    if not (np.ndim(index) == np.ndim(values) == 1 and len(index) == len(values)):
        raise GeometryError(
            f"far-field scatter needs a 1-D index and 1-D values of one "
            f"length, got shapes {np.shape(index)} and {np.shape(values)}"
        )
    flat = target.reshape(-1)
    np.add.at(flat[shift:], index, values)
    if not np.may_share_memory(flat, target):
        target[...] = flat.reshape(target.shape)
