"""The flat, x-slab-blocked ``curl_update`` against its oracle.

With a scratch and same-shape C-contiguous operands the kernel computes
over the contiguous flat span from a region's first cell to its last —
including lanes that are not region cells — and copies only the region
back.  These tests pin what that licence rests on: every case is bitwise
equal to the ``scratch=None`` reference expression; no cell of ``dst``
outside the region is written; nothing the reference does not read
(NaN-poisoned here) reaches a region cell; slab boundaries inside the
region change nothing; and low-fill pieces and operands that fail the
precondition take the reference expression.

``dst`` itself is filled with finite random values outside the region,
not NaN: a discarded lane computes ``ca*dst + ...``, which is NaN
wherever ``dst`` is, so a stray write would put NaN over NaN and go
unseen.  Over a finite sentinel it lands as the NaN of the poisoned
coefficients and is caught.

Which branch ran is observed from outside: only the flat branch asks the
scratch for buffers, so ``scratch.nbytes() > 0`` iff it was taken.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fdtd import update
from repro.apps.fdtd.update import KernelScratch, curl_update, shift_region
from repro.util import bitwise_equal_arrays

AXIS_PAIRS = list(itertools.permutations(range(3), 2))
INV_DA, INV_DB = 1.0 / 0.013, 1.0 / 0.017


def widest_region(shape, axes, backward):
    """The largest region the stencil allows: the whole array, less the
    one plane each differenced axis reads beyond."""
    return tuple(
        slice(int(a in axes and backward), n - int(a in axes and not backward))
        for a, n in enumerate(shape)
    )


def operands(shape, dtype, region, axes, backward, seed):
    """Random operands, NaN wherever the reference never looks: ``ca``,
    ``cb`` outside the region, ``fa``/``fb`` outside the region and its
    one-cell image along their axis.  ``dst`` is finite throughout."""
    rng = np.random.default_rng(seed)
    side = -1 if backward else 1
    out = [rng.uniform(-1.0, 1.0, shape).astype(dtype)]  # dst
    for reads in (
        [region],  # ca
        [region],  # cb
        [region, shift_region(region, axes[0], side)],  # fa
        [region, shift_region(region, axes[1], side)],  # fb
    ):
        arr = np.full(shape, np.nan, dtype)
        for r in reads:
            arr[r] = rng.uniform(-1.0, 1.0, arr[r].shape)
        out.append(arr)
    return out


def expect_flat(shape, region):
    """The low-fill rule, restated independently of the kernel."""
    first = np.ravel_multi_index([s.start for s in region], shape)
    last = np.ravel_multi_index([s.stop - 1 for s in region], shape)
    cells = np.prod([s.stop - s.start for s in region])
    return last - first + 1 <= 2 * cells


def check(shape, dtype, region, axes, backward, block, seed=0):
    """Run reference and scratch paths on identical operands; returns
    the scratch so callers can see which branch ran."""
    dst, ca, cb, fa, fb = operands(shape, dtype, region, axes, backward, seed)
    args = (ca, cb, fa, axes[0], INV_DA, fb, axes[1], INV_DB, region, backward)
    ref, got = dst.copy(), dst.copy()
    curl_update(ref, *args)
    scratch = KernelScratch()
    with mock.patch.object(update, "_BLOCK", block):
        curl_update(got, *args, scratch=scratch)
    assert np.isfinite(ref[region]).all()
    assert bitwise_equal_arrays(ref, got)
    outside = np.ones(shape, bool)
    outside[region] = False
    assert bitwise_equal_arrays(got[outside], dst[outside])  # never written
    return scratch


@st.composite
def cases(draw):
    shape = tuple(draw(st.integers(2, 7)) for _ in range(3))
    axes = draw(st.sampled_from(AXIS_PAIRS))
    backward = draw(st.booleans())
    region = []
    for s in widest_region(shape, axes, backward):
        start = draw(st.integers(s.start, s.stop - 1))
        region.append(slice(start, draw(st.integers(start + 1, s.stop))))
    return dict(
        shape=shape,
        dtype=draw(st.sampled_from([np.float64, np.float32])),
        region=tuple(region),
        axes=axes,
        backward=backward,
        # from one cell per slab to the whole array in one
        block=draw(st.integers(1, 2 * int(np.prod(shape)))),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=300, deadline=None)
@given(cases())
def test_random_regions_bitwise_equal_reference(case):
    scratch = check(**case)
    took_flat = scratch.nbytes() > 0
    assert took_flat == expect_flat(case["shape"], case["region"])


@pytest.mark.parametrize("backward", [True, False])
@pytest.mark.parametrize("axes", AXIS_PAIRS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_region_touching_every_array_edge(dtype, axes, backward):
    # Starts at index 0 and ends at the last index wherever the stencil
    # allows: the span's first and last reads are the array's own.
    shape = (5, 4, 6)
    region = widest_region(shape, axes, backward)
    assert check(shape, dtype, region, axes, backward, block=48).nbytes() > 0


@pytest.mark.parametrize("backward", [True, False])
@pytest.mark.parametrize(
    "region, flat",
    [
        # thin in x: one plane is one nearly-full span
        ((slice(2, 3), slice(1, 5), slice(1, 8)), True),
        # thin in y / in z: mostly discarded lanes
        ((slice(1, 5), slice(2, 3), slice(1, 8)), False),
        ((slice(1, 5), slice(1, 5), slice(4, 5)), False),
        # two z-rows of 3 and of 2: span 12 <= 2x6 cells, span 11 > 2x4
        ((slice(2, 3), slice(1, 3), slice(3, 6)), True),
        ((slice(2, 3), slice(1, 3), slice(3, 5)), False),
    ],
)
def test_low_fill_rule_both_sides(region, flat, backward):
    shape = (6, 6, 9)
    assert expect_flat(shape, region) == flat
    for axes in AXIS_PAIRS:
        scratch = check(shape, np.float64, region, axes, backward, block=10**6)
        assert (scratch.nbytes() > 0) == flat


@pytest.mark.parametrize("backward", [True, False])
@pytest.mark.parametrize(
    "planes_per_slab, slabs",
    [(8, 1), (4, 2), (3, 3), (1, 8)],  # 8 planes: 1, 2, 2.67 and 8 blocks
)
def test_slab_boundaries_inside_the_region(planes_per_slab, slabs, backward):
    shape = (8, 5, 6)
    plane = 5 * 6
    region = widest_region(shape, (0, 2), backward)
    assert -(-shape[0] // planes_per_slab) == slabs
    # a block that is not a whole number of planes rounds down to one
    block = planes_per_slab * plane + plane // 2
    scratch = check(shape, np.float64, region, (0, 2), backward, block)
    assert scratch.nbytes() == 3 * planes_per_slab * plane * 8


def test_plane_larger_than_block_is_one_plane_per_slab():
    shape = (4, 5, 6)
    region = widest_region(shape, (1, 2), True)
    scratch = check(shape, np.float64, region, (1, 2), True, block=7)
    assert scratch.nbytes() == 3 * 5 * 6 * 8


@pytest.mark.parametrize(
    "spoil",
    ["strided", "fortran", "shape", "dtype"],
)
@pytest.mark.parametrize("which", range(5))  # dst, ca, cb, fa, fb
def test_precondition_failure_takes_reference_path(which, spoil):
    shape, axes, backward = (5, 4, 6), (1, 2), True
    region = widest_region(shape, axes, backward)
    ops = operands(shape, np.float64, region, axes, backward, seed=1)
    arr = ops[which]
    if spoil == "strided":  # same shape and values: every other z of a wider
        wide = np.full(shape[:2] + (2 * shape[2],), np.nan)
        wide[:, :, ::2] = arr
        arr = wide[:, :, ::2]
    elif spoil == "fortran":
        arr = np.asfortranarray(arr)
    elif spoil == "shape":  # one extra, never-read plane
        arr = np.concatenate([arr, np.full((1,) + shape[1:], np.nan)])
    else:
        arr = arr.astype(np.float32)
    assert not (
        arr.flags.c_contiguous
        and arr.shape == shape
        and arr.dtype == np.float64
    )
    ops[which] = arr

    def run(scratch):
        dst = ops[0].copy(order="K")
        if which == 0 and spoil == "strided":
            dst = ops[0].base.copy()[:, :, ::2]  # copy() would compact it
        curl_update(
            dst, *ops[1:3], ops[3], 1, INV_DA, ops[4], 2, INV_DB, region,
            backward, scratch=scratch,
        )
        return dst

    scratch = KernelScratch()
    ref, got = run(None), run(scratch)
    assert scratch.nbytes() == 0
    assert bitwise_equal_arrays(ref[region], got[region])
    assert np.isfinite(got[region]).all()


def test_shared_pack_views_take_the_flat_path():
    """What a pool worker computes on: views at aligned offsets of two
    shared segments, the coefficients read-only.  They are C-contiguous,
    so the flat path applies exactly as to private arrays."""
    from repro.dist.shm import (
        PACK_ALIGN,
        SharedStoreArena,
        attach_store,
    )

    shape, axes, backward = (6, 5, 7), (1, 2), True
    region = widest_region(shape, axes, backward)
    names = ("dst", "ca", "cb", "fa", "fb")
    store = dict(
        zip(names, operands(shape, np.float64, region, axes, backward, seed=3))
    )
    for name in ("ca", "cb"):
        store[name].flags.writeable = False

    def update(dst, ops, scratch=None):
        curl_update(
            dst, ops["ca"], ops["cb"], ops["fa"], axes[0], INV_DA,
            ops["fb"], axes[1], INV_DB, region, backward, scratch=scratch,
        )

    ref = store["dst"].copy()
    update(ref, store)

    arena = SharedStoreArena()
    try:
        plan, rest = arena.share_store(store)
        assert rest == {} and len({entry[0] for entry in plan.values()}) == 2
        shared, handles = attach_store(plan, rest, {})
        for name in names:
            view = shared[name]
            assert view.flags.c_contiguous and view.shape == shape
            assert view.ctypes.data % PACK_ALIGN == 0
            assert view.flags.writeable == (name not in ("ca", "cb"))
        scratch = KernelScratch()
        update(shared["dst"], shared, scratch)
        assert scratch.nbytes() > 0  # the flat branch ran
        assert bitwise_equal_arrays(shared["dst"], ref)
        del view, shared
    finally:
        arena.cleanup()
