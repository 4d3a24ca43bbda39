"""Ghost-boundary region arithmetic.

Each distributed array is stored locally as its owned block surrounded
by a ``ghost``-cell-wide ring holding "shadow copies of boundary values
from neighbouring processes' local sections" (paper section 4.2).  A
boundary-exchange refreshes the shadows; this module computes the exact
regions involved:

* :func:`owned_face_region` — the strip of *owned* cells a rank sends
  to the neighbour on a given face;
* :func:`ghost_face_region` — the strip of *ghost* cells a rank
  receives into from that neighbour.

Only faces are exchanged (not edge/corner diagonals): along every
non-face axis the strips span the owned interior.  That suffices for
any face-stencil computation — the FDTD updates among them — and gives
the pleasant property that all send strips and all ghost strips of one
exchange are pairwise disjoint, so the exchange satisfies data-exchange
restriction (i) *by construction* (and validation re-checks it).
"""

from __future__ import annotations

from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.errors import DecompositionError

__all__ = ["owned_face_region", "ghost_face_region"]


def _check(decomp: BlockDecomposition, axis: int, side: int) -> None:
    if not 0 <= axis < decomp.ndim:
        raise DecompositionError(f"axis {axis} out of range")
    if side not in (-1, 1):
        raise DecompositionError(f"side must be +-1, got {side}")
    if decomp.ghost < 1:
        raise DecompositionError("face regions need ghost width >= 1")


def owned_face_region(
    decomp: BlockDecomposition,
    rank: int,
    axis: int,
    side: int,
    full_span_below: bool = False,
) -> tuple[slice, ...]:
    """Local-array region of the owned cells adjacent to a face.

    ``side=-1`` is the low face, ``side=+1`` the high face.  The strip
    is ``ghost`` cells deep along ``axis`` and spans the owned interior
    along every other axis — unless ``full_span_below`` is set, in
    which case axes *before* ``axis`` span the full local extent (ghost
    cells included).  That is the dimension-ordered corner-filling
    variant: by the time the axis-``a`` exchange runs, the strips it
    ships already contain the fresh ghost values received in the
    earlier-axis exchanges, so after all axes the ghost *corners* are
    valid too (required by deep-ghost redundant computation).
    """
    _check(decomp, axis, side)
    g = decomp.ghost
    shape = decomp.owned_shape(rank)
    region = []
    for a, extent in enumerate(shape):
        if a != axis:
            if full_span_below and a < axis:
                region.append(slice(0, extent + 2 * g))
            else:
                region.append(slice(g, g + extent))
        elif side == -1:
            region.append(slice(g, 2 * g))
        else:
            region.append(slice(g + extent - g, g + extent))
    return tuple(region)


def ghost_face_region(
    decomp: BlockDecomposition,
    rank: int,
    axis: int,
    side: int,
    full_span_below: bool = False,
) -> tuple[slice, ...]:
    """Local-array region of the ghost cells beyond a face.

    ``full_span_below`` as in :func:`owned_face_region`.
    """
    _check(decomp, axis, side)
    g = decomp.ghost
    shape = decomp.owned_shape(rank)
    region = []
    for a, extent in enumerate(shape):
        if a != axis:
            if full_span_below and a < axis:
                region.append(slice(0, extent + 2 * g))
            else:
                region.append(slice(g, g + extent))
        elif side == -1:
            region.append(slice(0, g))
        else:
            region.append(slice(g + extent, g + extent + g))
    return tuple(region)
