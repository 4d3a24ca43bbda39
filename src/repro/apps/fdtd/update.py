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

from repro.apps.fdtd.grid import (
    COMPONENTS,
    E_COMPONENTS,
    H_COMPONENTS,
    UPDATE_TRIMS,
    YeeGrid,
)
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
    "bind_curl",
    "run_curl",
    "curl_pieces",
    "STEP_ARRAYS",
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


#: Elements per scratch buffer (256 KB of float64): an x-slab of the
#: flat kernel is as many whole planes as fit.  A half-step runs its
#: three components slab-major (:class:`~repro.apps.fdtd.step.StepPlan`:
#: slab k of ``ex``, ``ey``, ``ez`` before slab k+1 of any), so the
#: operand planes one component reads are still in L2 for the next.
#: Fixed by rotated rounds of the suite's ``near_large`` (2-core box,
#: 2 MB of L2 per core): medians in host-adjusted ms over 10 rounds,
#: then each variant against the first row over 5 rounds.
#:
#: ==================  ==========  =======  ========  ======
#: order, block        sequential  mp_pool  threaded  socket
#: ==================  ==========  =======  ========  ======
#: by component, 64K   45.8        37.9     39.6      41.4
#: slab-major, 32K     39.8        33.5     38.2      37.2
#: slab-major, 24K     -9 %        -7 %     +2 %      -7 %
#: slab-major, 48K     -11 %       -13 %    -5 %      -10 %
#: slab-major, 64K     -5 %        -4 %     -2 %      -7 %
#: by component, 16K   -8 %        -11 %    +13 %     -14 %
#: ==================  ==========  =======  ========  ======
#:
#: Every extra ufunc call costs two threaded ranks sharing the GIL a
#: cross-core hand-off, which is what a small block loses; a large one
#: evicts the shared planes before the next component reads them.  48K
#: ties 32K except on ``threaded``, and 32K holds less scratch.  No
#: branch on the engine; if a host regresses ``run_ms.threaded``,
#: enlarge the block.
_BLOCK = 32768


class KernelScratch:
    """Preallocated scratch buffers for the allocation-free kernel path.

    One instance serves one caller (one rank, or the sequential driver):
    the buffers are reused across steps and components, so the instance
    must not be shared between concurrently running ranks.  Buffers are
    keyed by ``(shape, dtype)``, and :func:`curl_update` asks for one
    flat shape only, its x-slab length — at most ``max(_BLOCK, one
    plane)`` elements — so :meth:`nbytes` is bounded by three blocks
    whatever the grid size and the number of distinct update regions,
    and after the first call the leapfrog hot loop allocates no array
    memory at all.

    Buffer contents are pure cache (fully overwritten before every
    read), so pickling drops them: a scratch captured in a process-body
    closure crosses to a worker empty and refills on first use there.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
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
                np.empty(shape, dtype),
                np.empty(shape, dtype),
                np.empty(shape, dtype),
            )
        return got

    def nbytes(self) -> int:
        """Total bytes currently held (tests and capacity accounting)."""
        return sum(sum(b.nbytes for b in bufs) for bufs in self._bufs.values())

    def __reduce__(self):
        # Buffer contents never cross a pickle: rebuild empty.
        return (KernelScratch, ())


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
) -> None:
    """``dst[R] = ca[R]*dst[R] + cb[R]*(d_a*inv_da - d_b*inv_db)``.

    ``backward=True`` uses ``f[x] - f[x-1]`` differences (E updates,
    reading one cell toward low indices — the low-side ghost in a
    partitioned array); ``backward=False`` uses ``f[x+1] - f[x]``
    (H updates, reading the high-side ghost).

    This is the *unbound* call: it binds the piece (:func:`bind_curl`)
    and runs it (:func:`run_curl`) every time.  The drivers' hot path
    is a :class:`~repro.apps.fdtd.step.StepPlan`, which binds every
    piece once per run and then only runs it; this call, and its
    ``scratch=None`` reference expression, are the oracle the plan and
    the flat path are tested against.

    With a :class:`KernelScratch`, and ``dst, ca, cb, fa, fb`` all
    C-contiguous of one shape and dtype (global arrays, scattered local
    blocks and shm-backed stores always are), the update runs on *flat*
    1-D views: a neighbour along an axis is a constant flat offset, so
    over the contiguous span from the region's first cell to its last
    the arithmetic is eight contiguous ``out=`` ufuncs straight from the
    source arrays, and one strided ``copyto`` then writes only the
    region's cells back into ``dst``.  Lanes of the span outside the
    region are computed into scratch and discarded, never written; every
    read stays in bounds because the span's reads lie between the first
    and the last region cell's own reads.  The span is walked in x-slabs
    (axis 0 is the slowest, so whole planes are one contiguous span) of
    at most :data:`_BLOCK` elements, which keeps the scratch
    cache-resident.  Zero array allocations per call, and
    bitwise-identical results: the update is elementwise, so re-tiling
    and extra lanes change no region cell's operation dag (nor does
    folding ``cb*(...)`` as ``(...)*cb``: IEEE multiplication commutes).

    Everything else takes the reference expression: no scratch,
    operands that fail the precondition, and *low-fill* pieces whose
    flat span exceeds twice their cell count (shell strips thin in y or
    z), where the discarded lanes would cost more than the reference's
    temporaries.
    """
    args = (dst, ca, cb, fa, axis_a, inv_da, fb, axis_b, inv_db, region, backward)
    slabs = None if scratch is None else bind_curl(*args, scratch)
    if slabs is not None:
        run_curl(slabs)
        return
    if backward:
        da = fa[region] - fa[shift_region(region, axis_a, -1)]
        db = fb[region] - fb[shift_region(region, axis_b, -1)]
    else:
        da = fa[shift_region(region, axis_a, 1)] - fa[region]
        db = fb[shift_region(region, axis_b, 1)] - fb[region]
    dst[region] = ca[region] * dst[region] + cb[region] * (
        da * inv_da - db * inv_db
    )


def bind_curl(
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
    scratch: KernelScratch,
) -> list[tuple] | None:
    """The flat path of one :func:`curl_update` piece, bound: one tuple
    of operand, scratch and ``copyto`` views per x-slab, for
    :func:`run_curl`; ``None`` when the piece takes the reference
    expression (operands that fail the precondition, or low fill).

    The views alias the operands and ``scratch``: they stay valid while
    those arrays live, and running them recomputes the piece from the
    operands' current values.
    """
    shape, dtype = dst.shape, dst.dtype
    for a in (dst, ca, cb, fa, fb):
        if not (a.shape == shape and a.dtype == dtype and a.flags.c_contiguous):
            return None
    # Element strides and the flat positions of the region's first and
    # last cell, in one pass from the fastest axis.
    strides = [1] * len(shape)
    stride, first, last, cells = 1, 0, 0, 1
    for i in range(len(shape) - 1, -1, -1):
        s = region[i]
        strides[i] = stride
        first += s.start * stride
        last += (s.stop - 1) * stride
        cells *= s.stop - s.start
        stride *= shape[i]
    if not 0 < last - first + 1 <= 2 * cells:
        return None
    plane = strides[0]
    step = min(shape[0], max(1, _BLOCK // plane))  # planes per slab
    # Operands are read in place, so two buffers carry the whole dag;
    # the trio's third is never touched and costs address space only.
    s1, s2, _ = scratch.trio((step * plane,), dtype)
    out = s2.reshape((step,) + shape[1:])
    dstf, caf, cbf = dst.ravel(), ca.ravel(), cb.ravel()
    faf, fbf = fa.ravel(), fb.ravel()
    oa, ob = strides[axis_a], strides[axis_b]
    # Minuend offsets; each subtrahend is one cell lower along its axis.
    pa, pb = (0, 0) if backward else (oa, ob)
    x0, x1 = region[0].start, region[0].stop
    inner = region[1:]
    # Within a plane: the region's first cell, and one past its last.
    head = first - x0 * plane
    tail = last - (x1 - 1) * plane + 1
    slabs = []
    for xa in range(x0, x1, step):
        xb = min(xa + step, x1)
        lo, hi = xa * plane + head, (xb - 1) * plane + tail
        n = hi - lo
        a, b = lo + pa, lo + pb
        slabs.append(
            (
                faf[a : a + n],
                faf[a - oa : a - oa + n],
                fbf[b : b + n],
                fbf[b - ob : b - ob + n],
                inv_da,
                inv_db,
                cbf[lo:hi],
                caf[lo:hi],
                dstf[lo:hi],
                s1[head : head + n],
                s2[head : head + n],
                dst[(slice(xa, xb),) + inner],
                out[(slice(0, xb - xa),) + inner],
            )
        )
    return slabs


def run_curl(slabs: list[tuple]) -> None:
    """Run bound flat-path slabs (:func:`bind_curl`): nine ufuncs each,
    on views only — no slicing, no checks, no allocation."""
    subtract, multiply, add, copyto = np.subtract, np.multiply, np.add, np.copyto
    for fa1, fa0, fb1, fb0, inv_da, inv_db, cb, ca, dst, t1, t2, target, out in slabs:
        subtract(fa1, fa0, t1)  # da
        subtract(fb1, fb0, t2)  # db
        multiply(t1, inv_da, t1)  # da * inv_da
        multiply(t2, inv_db, t2)  # db * inv_db
        subtract(t1, t2, t1)  # da*inv_da - db*inv_db
        multiply(t1, cb, t1)  # cb * (...)
        multiply(ca, dst, t2)  # ca * dst
        add(t2, t1, t2)
        copyto(target, out)


def _region_pieces(region) -> list[tuple[slice, ...]]:
    """Normalize a region entry: ``None`` → no pieces, one region → one
    piece, a list of regions (the shell/interior split) → its pieces."""
    if region is None:
        return []
    if isinstance(region, list):
        return region
    return [region]


#: Per half-step: the updated components, their curl table, the names
#: of their two coefficients and the stencil direction.
_HALF_STEPS = {
    "e": (E_COMPONENTS, E_CURL, ("ca", "cb"), E_STENCIL_SIDE < 0),
    "h": (H_COMPONENTS, H_CURL, ("da", "db"), H_STENCIL_SIDE < 0),
}

#: Every array a step reads or writes: the fields, then the coefficients.
STEP_ARRAYS: tuple[str, ...] = COMPONENTS + tuple(
    f"{coef}_{comp}"
    for comps, _, coefs, _ in _HALF_STEPS.values()
    for comp in comps
    for coef in coefs
)


def curl_pieces(
    arrays: Mapping[str, np.ndarray],
    regions: Mapping[str, tuple[slice, ...] | list | None],
    inv_spacing: tuple[float, float, float],
    half: str,
):
    """The :func:`curl_update` arguments (all but ``scratch``) of one
    half-step, ``"e"`` or ``"h"``, piece by piece in component order.

    ``arrays`` maps ``ex..hz`` plus coefficient names ``ca_ex`` /
    ``cb_ex`` etc. to arrays (global or ghosted-local alike); a region
    of ``None`` means this caller updates nothing for that component
    (a rank whose block misses the component's update range), and a
    *list* of regions (the overlap refinement's shell pieces) yields
    each piece in order — the pieces are disjoint, so any order gives
    bitwise the same fields.
    """
    comps, curl, (ca, cb), backward = _HALF_STEPS[half]
    for comp in comps:
        fa, axis_a, fb, axis_b = curl[comp]
        for region in _region_pieces(regions[comp]):
            yield (
                arrays[comp],
                arrays[f"{ca}_{comp}"],
                arrays[f"{cb}_{comp}"],
                arrays[fa],
                axis_a,
                inv_spacing[axis_a],
                arrays[fb],
                axis_b,
                inv_spacing[axis_b],
                region,
                backward,
            )


def update_e(
    arrays: Mapping[str, np.ndarray],
    regions: Mapping[str, tuple[slice, ...] | list | None],
    inv_spacing: tuple[float, float, float],
    scratch: KernelScratch | None = None,
) -> None:
    """One unbound E half-step over the given per-component regions
    (:func:`curl_pieces`); ``scratch`` (one per caller) selects the
    allocation-free path."""
    for args in curl_pieces(arrays, regions, inv_spacing, "e"):
        curl_update(*args, scratch=scratch)


def update_h(
    arrays: Mapping[str, np.ndarray],
    regions: Mapping[str, tuple[slice, ...] | list | None],
    inv_spacing: tuple[float, float, float],
    scratch: KernelScratch | None = None,
) -> None:
    """One unbound H half-step over the given per-component regions."""
    for args in curl_pieces(arrays, regions, inv_spacing, "h"):
        curl_update(*args, scratch=scratch)


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
