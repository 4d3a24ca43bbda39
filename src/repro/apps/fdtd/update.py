"""Vectorized Yee leapfrog update kernels.

One generic kernel, :func:`curl_update`, serves all six components and
— crucially for the methodology — serves them identically in the
sequential code (global arrays, global update regions) and in the
grid-process code (ghosted local arrays, per-rank regions intersected
with the global region).  Because the kernel is purely elementwise over
the region it is given, partitioning the region across processes cannot
change a single floating-point operation: this is why the paper's
near-field results are *bitwise identical* across versions, and ours
are too.

The curl structure (standard Yee):

==========  ==============================  =========
component    update                          differences
==========  ==============================  =========
``ex``      ``+ dHz/dy - dHy/dz``           backward
``ey``      ``+ dHx/dz - dHz/dx``           backward
``ez``      ``+ dHy/dx - dHx/dy``           backward
``hx``      ``+ dEy/dz - dEz/dy``           forward
``hy``      ``+ dEz/dx - dEx/dz``           forward
``hz``      ``+ dEx/dy - dEy/dx``           forward
==========  ==============================  =========
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.apps.fdtd.grid import E_COMPONENTS, H_COMPONENTS, UPDATE_TRIMS, YeeGrid
from repro.archetypes.mesh.decomposition import BlockDecomposition

__all__ = [
    "E_CURL",
    "H_CURL",
    "E_STENCIL_SIDE",
    "H_STENCIL_SIDE",
    "H_GHOST_FACES",
    "E_GHOST_FACES",
    "E_SHELL_SIDES",
    "H_SHELL_SIDES",
    "KernelScratch",
    "shift_region",
    "curl_update",
    "update_e",
    "update_h",
    "intersect_local",
    "local_update_regions",
    "comm_strips",
    "split_region",
    "split_local_update_regions",
]

#: component -> (field_a, axis_a, field_b, axis_b): update is
#: ``ca*self + cb*(d field_a / d axis_a - d field_b / d axis_b)``.
E_CURL: dict[str, tuple[str, int, str, int]] = {
    "ex": ("hz", 1, "hy", 2),
    "ey": ("hx", 2, "hz", 0),
    "ez": ("hy", 0, "hx", 1),
}
H_CURL: dict[str, tuple[str, int, str, int]] = {
    "hx": ("ey", 2, "ez", 1),
    "hy": ("ez", 0, "ex", 2),
    "hz": ("ex", 1, "ey", 0),
}
#: Which neighbour each half-step's differences reach for: E updates
#: take backward differences (``f[x] - f[x-1]``), H updates forward.
E_STENCIL_SIDE = -1
H_STENCIL_SIDE = +1


def _ghost_reads(
    curl: dict[str, tuple[str, int, str, int]], side: int
) -> frozenset[tuple[str, int, int]]:
    """The ``(variable, axis, side)`` ghost faces one half-step reads:
    each curl entry differences ``field_a`` along ``axis_a`` and
    ``field_b`` along ``axis_b``, one cell toward ``side``."""
    return frozenset(
        (field, axis, side)
        for fa, axis_a, fb, axis_b in curl.values()
        for field, axis in ((fa, axis_a), (fb, axis_b))
    )


#: Ghost-read footprint of the E update (H one cell toward low
#: indices) — the only ghost faces the H phase-exchange has to fill.
#: ``hy,hz@x-``, ``hx,hz@y-``, ``hx,hy@z-``: two of three components,
#: one of two directions per inter-rank face.
H_GHOST_FACES = _ghost_reads(E_CURL, E_STENCIL_SIDE)
#: Ghost-read footprint of the H update (E one cell toward high
#: indices) — what the E phase-exchange fills.
E_GHOST_FACES = _ghost_reads(H_CURL, H_STENCIL_SIDE)

def _shell_sides(reads, ships) -> frozenset[int]:
    """Sides of a rank's block whose owned strips make up a phase's
    *shell* in the overlap refinement: the strips next to the ghosts the
    phase ``reads``, plus the strips it ``ships`` (a receiver's ghost on
    ``side`` is filled from the sender's owned strip on ``-side``)."""
    return frozenset(
        {side for _, _, side in reads} | {-side for _, _, side in ships}
    )


#: The E passes read H ghosts and ship E strips: low side only.
E_SHELL_SIDES = _shell_sides(reads=H_GHOST_FACES, ships=E_GHOST_FACES)
#: The H passes read E ghosts and ship H strips: high side only.
H_SHELL_SIDES = _shell_sides(reads=E_GHOST_FACES, ships=H_GHOST_FACES)


def shift_region(region: tuple[slice, ...], axis: int, delta: int) -> tuple[slice, ...]:
    """The region translated by ``delta`` along ``axis``."""
    out = list(region)
    s = region[axis]
    out[axis] = slice(s.start + delta, s.stop + delta)
    return tuple(out)


class KernelScratch:
    """Preallocated scratch buffers for the allocation-free kernel path.

    One instance serves one caller (one rank, or the sequential driver):
    the buffers are reused across steps and components, so the instance
    must not be shared between concurrently running ranks.  Buffers are
    keyed by ``(shape, dtype)``; the FDTD update regions are fixed for a
    given grid and decomposition, so after the first step the cache is
    warm and the leapfrog hot loop allocates no array memory at all —
    not even numpy's buffered-iteration scratch, because the kernel
    stages every strided region view through these contiguous buffers
    with ``np.copyto`` and runs all arithmetic contiguous-only.

    Buffer contents are pure cache (fully overwritten before every
    read), so pickling drops them: a scratch captured in a process-body
    closure crosses to a worker empty and refills on first use there.

    The buffers live on an array *backend* (``backend="numpy"`` by
    default, ``"cupy"`` for device memory): the scratch resolves the
    backend name through :func:`repro.xp.get_backend` and exposes the
    namespace as :attr:`xp` so kernels allocate and compute on whatever
    module the caller chose.
    """

    __slots__ = ("_bufs", "backend", "xp")

    def __init__(self, backend: str = "numpy") -> None:
        from repro.xp import get_backend

        self.backend = backend
        #: the array namespace buffers are allocated on
        self.xp = get_backend(backend).xp
        self._bufs: dict[
            tuple, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def trio(
        self, shape: tuple[int, ...], dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three scratch arrays for ``(shape, dtype)``, allocated once."""
        key = (shape, dtype)
        got = self._bufs.get(key)
        if got is None:
            got = self._bufs[key] = (
                self.xp.empty(shape, dtype),
                self.xp.empty(shape, dtype),
                self.xp.empty(shape, dtype),
            )
        return got

    def nbytes(self) -> int:
        """Total bytes currently held (tests and capacity accounting)."""
        return sum(sum(b.nbytes for b in bufs) for bufs in self._bufs.values())

    def __reduce__(self):
        # Buffer contents never cross a pickle: rebuild empty.
        return (KernelScratch, (self.backend,))


def curl_update(
    dst: np.ndarray,
    ca: np.ndarray,
    cb: np.ndarray,
    fa: np.ndarray,
    axis_a: int,
    inv_da: float,
    fb: np.ndarray,
    axis_b: int,
    inv_db: float,
    region: tuple[slice, ...],
    backward: bool,
    scratch: KernelScratch | None = None,
    xp=None,
) -> None:
    """``dst[R] = ca[R]*dst[R] + cb[R]*(d_a*inv_da - d_b*inv_db)``.

    ``backward=True`` uses ``f[x] - f[x-1]`` differences (E updates,
    reading one cell toward low indices — the low-side ghost in a
    partitioned array); ``backward=False`` uses ``f[x+1] - f[x]``
    (H updates, reading the high-side ghost).

    With a :class:`KernelScratch` the update runs through preallocated
    buffers and ``out=`` ufunc calls — zero array allocations per call,
    and bitwise-identical results: the per-element operation dag is
    unchanged (IEEE multiplication is commutative, so folding
    ``cb*(...)`` as ``(...)*cb`` into a buffer alters nothing), only
    where intermediates are stored.  Strided region views are staged
    into the contiguous scratch with ``np.copyto`` (a pure strided
    copy) before any arithmetic touches them; a ufunc handed a
    non-contiguous operand would otherwise allocate its fixed
    ``np.getbufsize()``-element iteration buffers on every call.

    ``xp`` is the array namespace the ufunc calls go through (NumPy by
    default, CuPy for device arrays — both implement this exact
    ``copyto``/``subtract``/``multiply``/``add`` ``out=`` slice of the
    API).  It defaults to the scratch's own backend namespace, which
    keeps buffers and arithmetic on the same device; the plain
    (allocating) path needs no namespace at all because operators
    dispatch on the array type.
    """
    if scratch is None:
        if backward:
            da = fa[region] - fa[shift_region(region, axis_a, -1)]
            db = fb[region] - fb[shift_region(region, axis_b, -1)]
        else:
            da = fa[shift_region(region, axis_a, 1)] - fa[region]
            db = fb[shift_region(region, axis_b, 1)] - fb[region]
        dst[region] = ca[region] * dst[region] + cb[region] * (
            da * inv_da - db * inv_db
        )
        return
    if xp is None:
        xp = scratch.xp
    view = dst[region]
    s1, s2, s3 = scratch.trio(view.shape, view.dtype)
    if backward:
        xp.copyto(s1, fa[region])
        xp.copyto(s2, fa[shift_region(region, axis_a, -1)])
        xp.subtract(s1, s2, out=s1)  # da
        xp.copyto(s2, fb[region])
        xp.copyto(s3, fb[shift_region(region, axis_b, -1)])
        xp.subtract(s2, s3, out=s2)  # db
    else:
        xp.copyto(s1, fa[shift_region(region, axis_a, 1)])
        xp.copyto(s2, fa[region])
        xp.subtract(s1, s2, out=s1)  # da
        xp.copyto(s2, fb[shift_region(region, axis_b, 1)])
        xp.copyto(s3, fb[region])
        xp.subtract(s2, s3, out=s2)  # db
    xp.multiply(s1, inv_da, out=s1)  # da * inv_da
    xp.multiply(s2, inv_db, out=s2)  # db * inv_db
    xp.subtract(s1, s2, out=s1)  # da*inv_da - db*inv_db
    xp.copyto(s2, cb[region])
    xp.multiply(s1, s2, out=s1)  # cb * (...)
    xp.copyto(s2, ca[region])
    xp.copyto(s3, view)
    xp.multiply(s2, s3, out=s2)  # ca * dst
    xp.add(s2, s1, out=s2)
    xp.copyto(view, s2)


def _region_pieces(region) -> list[tuple[slice, ...]]:
    """Normalize a region entry: ``None`` → no pieces, one region → one
    piece, a list of regions (the shell/interior split) → its pieces."""
    if region is None:
        return []
    if isinstance(region, list):
        return region
    return [region]


def update_e(
    arrays: Mapping[str, np.ndarray],
    regions: Mapping[str, tuple[slice, ...] | list | None],
    inv_spacing: tuple[float, float, float],
    scratch: KernelScratch | None = None,
    xp=None,
) -> None:
    """One E half-step over the given per-component regions.

    ``arrays`` maps ``ex..hz`` plus coefficient names ``ca_ex`` /
    ``cb_ex`` etc. to arrays (global or ghosted-local alike); a region
    of ``None`` means this caller updates nothing for that component
    (a rank whose block misses the component's update range), and a
    *list* of regions (the overlap refinement's shell pieces) updates
    each piece in order — the pieces are disjoint, so any order gives
    bitwise the same fields.  ``scratch`` (one per caller) selects the
    allocation-free path; ``xp`` the array namespace.
    """
    for comp in E_COMPONENTS:
        fa, axis_a, fb, axis_b = E_CURL[comp]
        for region in _region_pieces(regions[comp]):
            curl_update(
                arrays[comp],
                arrays[f"ca_{comp}"],
                arrays[f"cb_{comp}"],
                arrays[fa],
                axis_a,
                inv_spacing[axis_a],
                arrays[fb],
                axis_b,
                inv_spacing[axis_b],
                region,
                backward=E_STENCIL_SIDE < 0,
                scratch=scratch,
                xp=xp,
            )


def update_h(
    arrays: Mapping[str, np.ndarray],
    regions: Mapping[str, tuple[slice, ...] | list | None],
    inv_spacing: tuple[float, float, float],
    scratch: KernelScratch | None = None,
    xp=None,
) -> None:
    """One H half-step over the given per-component regions."""
    for comp in H_COMPONENTS:
        fa, axis_a, fb, axis_b = H_CURL[comp]
        for region in _region_pieces(regions[comp]):
            curl_update(
                arrays[comp],
                arrays[f"da_{comp}"],
                arrays[f"db_{comp}"],
                arrays[fa],
                axis_a,
                inv_spacing[axis_a],
                arrays[fb],
                axis_b,
                inv_spacing[axis_b],
                region,
                backward=H_STENCIL_SIDE < 0,
                scratch=scratch,
                xp=xp,
            )


def intersect_local(
    decomp: BlockDecomposition, rank: int, global_region: tuple[slice, ...]
) -> tuple[slice, ...] | None:
    """Translate a global region into ``rank``'s ghosted local array.

    Returns the local slices of the intersection of ``global_region``
    with the rank's owned block, or ``None`` when the intersection is
    empty.  This one helper is what makes "computations performed
    differently in the individual grid processes" (paper section 4.4)
    systematic rather than hand-written: boundary ranks automatically
    receive trimmed regions, interior ranks full ones.
    """
    g = decomp.ghost
    local: list[slice] = []
    for (a, b), s in zip(decomp.owned_bounds(rank), global_region):
        lo = max(s.start, a)
        hi = min(s.stop, b)
        if lo >= hi:
            return None
        local.append(slice(g + lo - a, g + hi - a))
    return tuple(local)


def local_update_regions(
    grid: YeeGrid, decomp: BlockDecomposition, rank: int
) -> dict[str, tuple[slice, ...] | None]:
    """Per-component local update regions for one rank."""
    return {
        comp: intersect_local(decomp, rank, grid.update_region(comp))
        for comp in UPDATE_TRIMS
    }


# ---------------------------------------------------------------------------
# Shell/interior splitting (the compute/communication overlap refinement)
# ---------------------------------------------------------------------------

#: one communication strip: owned cells at local indices [lo, hi) along
#: ``axis`` — exactly the slab whose values travel to a neighbour rank.
Strip = tuple[int, int, int]


def comm_strips(
    decomp: BlockDecomposition, rank: int, sides=(-1, 1)
) -> list[Strip]:
    """The rank's owned slabs adjacent to inter-rank faces, in local
    (ghosted) indices.

    For every axis/side with a real neighbour (physical-boundary sides
    have none), the ghost protocol sends the ``ghost``-deep plane of
    owned cells next to that face; these are precisely the cells that
    must be final before the sends of a step can fly, and the cells
    whose one-off-the-edge reads touch ghost data — the *shell* of the
    overlap refinement.  Everything outside every strip is *interior*:
    it neither feeds a message nor reads a ghost, so it can compute
    while the messages are in flight.

    ``sides`` keeps only the low (``-1``) or high (``+1``) strips: a
    one-sided stencil ships and reads ghosts on one side only
    (:data:`E_SHELL_SIDES` / :data:`H_SHELL_SIDES`), so its shell is
    half of the full one.
    """
    g = decomp.ghost
    strips: list[Strip] = []
    for axis, (a, b) in enumerate(decomp.owned_bounds(rank)):
        extent = b - a
        if -1 in sides and decomp.pgrid.neighbor(rank, axis, -1) is not None:
            strips.append((axis, g, g + g))
        if 1 in sides and decomp.pgrid.neighbor(rank, axis, 1) is not None:
            strips.append((axis, g + extent - g, g + extent))
    return strips


def split_region(
    region: tuple[slice, ...] | None, strips: list[Strip]
) -> tuple[list[tuple[slice, ...]], list[tuple[slice, ...]]]:
    """Split a local region into ``(shell_pieces, interior_pieces)``.

    The shell is the intersection of the region with the union of the
    strips, carved into disjoint boxes by peeling one strip at a time;
    the interior is what remains.  Together the pieces tile the region
    exactly — every cell appears in exactly one piece — so updating the
    pieces in any order is elementwise identical to one update of the
    whole region.
    """
    if region is None:
        return [], []
    shells: list[tuple[slice, ...]] = []
    boxes: list[list[tuple[int, int]]] = [
        [(s.start, s.stop) for s in region]
    ]
    for axis, lo, hi in strips:
        next_boxes: list[list[tuple[int, int]]] = []
        for box in boxes:
            a, b = box[axis]
            cut_lo, cut_hi = max(a, lo), min(b, hi)
            if cut_lo >= cut_hi:
                next_boxes.append(box)
                continue
            piece = list(box)
            piece[axis] = (cut_lo, cut_hi)
            shells.append(tuple(slice(p, q) for p, q in piece))
            if a < cut_lo:  # remainder below the strip
                below = list(box)
                below[axis] = (a, cut_lo)
                next_boxes.append(below)
            if cut_hi < b:  # remainder above the strip
                above = list(box)
                above[axis] = (cut_hi, b)
                next_boxes.append(above)
        boxes = next_boxes
    interior = [tuple(slice(p, q) for p, q in box) for box in boxes]
    return shells, interior


def split_local_update_regions(
    grid: YeeGrid, decomp: BlockDecomposition, rank: int
) -> tuple[
    dict[str, list[tuple[slice, ...]]], dict[str, list[tuple[slice, ...]]]
]:
    """Per-component ``(shell, interior)`` update-region pieces for one
    rank — :func:`local_update_regions` split along the communication
    strips of the component's phase (low-side strips for E, high-side
    for H).  With no inter-rank neighbours (a 1×1×1 decomposition) the
    shell is empty and the interior is the whole region, so the
    overlapped program degenerates to the baseline."""
    e_strips = comm_strips(decomp, rank, E_SHELL_SIDES)
    h_strips = comm_strips(decomp, rank, H_SHELL_SIDES)
    shell: dict[str, list[tuple[slice, ...]]] = {}
    interior: dict[str, list[tuple[slice, ...]]] = {}
    for comp, region in local_update_regions(grid, decomp, rank).items():
        strips = e_strips if comp in E_COMPONENTS else h_strips
        shell[comp], interior[comp] = split_region(region, strips)
    return shell, interior
