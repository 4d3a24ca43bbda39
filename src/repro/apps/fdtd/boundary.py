"""Outer boundary conditions: PEC box and first-order Mur ABC.

**PEC** is the default and needs no code: tangential E nodes on the
outer boundary are excluded from the update regions
(:data:`~repro.apps.fdtd.grid.UPDATE_TRIMS`) and therefore remain
exactly zero — a perfectly conducting box around the domain.

**Mur (first order)** replaces the PEC walls with a one-way wave
equation estimate: after each E update, every tangential E node on a
face is set from the previous-step values of itself and its inward
neighbour::

    u_new[face] = u_old[inward] + C * (u_new[inward] - u_old[face])
    C = (c0*dt - d) / (c0*dt + d)        d = spacing along the normal

Face-by-face application; edge nodes shared by two faces stay PEC
(first-order Mur has no corner treatment — a documented limitation of
the classic scheme).

The implementation is region-parameterised like the update kernels, so
the *same* face update runs on global arrays (sequential code) and on
the boundary ranks' local arrays (parallel code) — the "computation
performed differently in different grid processes" of section 4.4,
expressed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.fdtd.constants import C0
from repro.apps.fdtd.grid import UPDATE_TRIMS, YeeGrid
from repro.apps.fdtd.update import shift_region, split_region
from repro.errors import FDTDError

__all__ = [
    "MUR_FACES",
    "mur_face_regions",
    "split_mur_regions",
    "Mur1",
    "mur_coefficient",
]

#: Tangential E components per face-normal axis.
_TANGENTIAL = {0: ("ey", "ez"), 1: ("ex", "ez"), 2: ("ex", "ey")}

#: All (component, normal_axis, side) Mur faces: 2 components x 3 axes
#: x 2 sides = 12 face updates.
MUR_FACES: list[tuple[str, int, int]] = [
    (comp, axis, side)
    for axis in range(3)
    for side in (-1, 1)
    for comp in _TANGENTIAL[axis]
]


def mur_coefficient(grid: YeeGrid, axis: int) -> float:
    d = grid.spacing[axis]
    return (C0 * grid.dt - d) / (C0 * grid.dt + d)


def mur_face_regions(
    grid: YeeGrid, comp: str, axis: int, side: int
) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Global regions ``(face, inward)`` for one Mur face update.

    ``face`` selects the boundary plane's tangential nodes (transverse
    extents follow the component's own update trims, so edges shared
    with other faces are excluded); ``inward`` is the same set one node
    into the domain along the normal.
    """
    trims = UPDATE_TRIMS[comp]
    face: list[slice] = []
    inward: list[slice] = []
    for a, ((lo, hi), n) in enumerate(zip(trims, grid.shape)):
        if a != axis:
            face.append(slice(lo, n + 1 - hi))
            inward.append(slice(lo, n + 1 - hi))
        elif side == -1:
            face.append(slice(0, 1))
            inward.append(slice(1, 2))
        else:
            face.append(slice(n, n + 1))
            inward.append(slice(n - 1, n))
    return tuple(face), tuple(inward)


def split_mur_regions(regions, strips):
    """Split a Mur region dict into ``(shell, interior)`` dicts along
    the communication strips (the overlap refinement).

    A face piece belongs to the *shell* pass when either its face cells
    or their inward partners lie in a communication strip: face cells
    in a strip are sent to a neighbour, so their Mur update must
    precede the sends; inward partners in a strip are E cells updated
    (and possibly source-driven) during the shell pass, so reading them
    from the interior pass would see shell-pass source writes the
    baseline ordering performs *after* every Mur read.  Both hazards
    are excluded by augmenting the strips with their images shifted
    back along the face normal before carving.  Keys gain a piece
    index (``(comp, axis, side, i)``); :class:`Mur1` only ever uses the
    first two key elements, so split and unsplit dicts drive it alike.
    """
    shell = {}
    interior = {}
    for key, pair in regions.items():
        if pair is None:
            continue
        comp, axis = key[0], key[1]
        face, inward = pair
        delta = inward[axis].start - face[axis].start
        augmented = list(strips)
        for saxis, lo, hi in strips:
            if saxis == axis:
                augmented.append((saxis, lo - delta, hi - delta))
        face_shell, face_interior = split_region(face, augmented)
        for i, piece in enumerate(face_shell):
            shell[key[:3] + (i,)] = (piece, shift_region(piece, axis, delta))
        for i, piece in enumerate(face_interior):
            interior[key[:3] + (i,)] = (
                piece,
                shift_region(piece, axis, delta),
            )
    return shell, interior


@dataclass
class _FaceState:
    """Previous-step copies for one face update and the plane ``apply``
    computes into — allocated at the first ``record``, reused after."""

    face_old: np.ndarray
    inward_old: np.ndarray
    work: np.ndarray


class Mur1:
    """First-order Mur ABC driver for one set of field arrays.

    Usage per time step::

        mur.record(arrays)   # BEFORE the E update: snapshot planes
        update_e(...)
        mur.apply(arrays)    # AFTER: write the boundary planes

    ``regions`` maps each face key to a pair of regions in *the caller's
    arrays*.  For the sequential code these are the global regions of
    :func:`mur_face_regions`; for a grid process they are the local
    intersections (``None`` entries are skipped — ranks not touching
    that face).
    """

    def __init__(
        self,
        grid: YeeGrid,
        regions: dict[
            tuple[str, int, int],
            tuple[tuple[slice, ...], tuple[slice, ...]] | None,
        ]
        | None = None,
    ):
        self.grid = grid
        if regions is None:
            regions = {
                (comp, axis, side): mur_face_regions(grid, comp, axis, side)
                for comp, axis, side in MUR_FACES
            }
        self.regions = {k: v for k, v in regions.items() if v is not None}
        self.coef = {axis: mur_coefficient(grid, axis) for axis in range(3)}
        self._state: dict[tuple[str, int, int], _FaceState] = {}
        self._recorded = False

    def __getstate__(self):
        # Like KernelScratch, the planes never cross a pickle: a program
        # image taken after a run is no larger than one taken before.
        return {**self.__dict__, "_state": {}, "_recorded": False}

    def record(self, arrays) -> None:
        """Snapshot face and inward planes (call before the E update)."""
        for key, (face, inward) in self.regions.items():
            arr = arrays[key[0]]
            state = self._state.get(key)
            if state is None:
                planes = np.empty((3,) + arr[face].shape, arr.dtype)
                state = self._state[key] = _FaceState(*planes)
            state.face_old[...] = arr[face]
            state.inward_old[...] = arr[inward]
        self._recorded = True

    def apply(self, arrays) -> None:
        """Write the boundary planes (call after the E update)."""
        if not self._recorded:
            raise FDTDError("Mur1.apply called without a preceding record")
        for key, (face, inward) in self.regions.items():
            comp, axis = key[0], key[1]
            arr = arrays[comp]
            state = self._state[key]
            # inward_old + coef * (arr[inward] - face_old), in place
            work = state.work
            work[...] = arr[inward]
            work -= state.face_old
            work *= self.coef[axis]
            work += state.inward_old
            arr[face] = work
        self._recorded = False
