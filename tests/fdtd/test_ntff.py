"""Near-to-far-field transformation unit tests."""

import numpy as np
import pytest

from repro.apps.fdtd import (
    FDTDConfig,
    FieldSet,
    GaussianPulse,
    NTFFAccumulator,
    NTFFConfig,
    PointSource,
    YeeGrid,
    default_directions,
)
from repro.archetypes.mesh import BlockDecomposition
from repro.errors import GeometryError


def make_grid(shape=(12, 12, 12)):
    return YeeGrid(shape=shape)


class TestConfig:
    def test_surface_bounds(self):
        grid = make_grid((12, 10, 8))
        bounds = NTFFConfig(gap=3).surface_bounds(grid)
        assert bounds == [(3, 9), (3, 7), (3, 5)]

    def test_gap_too_large(self):
        grid = make_grid((6, 6, 6))
        with pytest.raises(GeometryError, match="no surface"):
            NTFFConfig(gap=3).surface_bounds(grid)

    def test_default_directions_are_unit(self):
        dirs = default_directions()
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0)


class TestAccumulator:
    def test_point_count_matches_box_surface(self):
        grid = make_grid((12, 12, 12))
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), steps=4)
        # surface box node extents: 3..9 inclusive -> 7 nodes per axis
        m = 7
        expected = 6 * m * m  # six faces, edges counted once per face
        assert acc.npoints == expected

    def test_zero_fields_zero_potentials(self):
        grid = make_grid()
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), steps=2)
        fields = FieldSet.zeros(grid)
        acc.accumulate(fields.components(), 0)
        A, F = acc.potentials()
        assert not A.any() and not F.any()

    def test_linearity_in_fields(self):
        grid = make_grid()
        rng = np.random.default_rng(5)
        fields = FieldSet.zeros(grid)
        for comp in fields.components():
            fields[comp][...] = rng.normal(size=grid.node_shape)

        acc1 = NTFFAccumulator(grid, NTFFConfig(gap=3), steps=1)
        acc1.accumulate(fields.components(), 0)
        doubled = {k: 2.0 * v for k, v in fields.components().items()}
        acc2 = NTFFAccumulator(grid, NTFFConfig(gap=3), steps=1)
        acc2.accumulate(doubled, 0)
        np.testing.assert_allclose(acc2.A, 2.0 * acc1.A)
        np.testing.assert_allclose(acc2.F, 2.0 * acc1.F)

    def test_j_is_n_cross_h(self):
        # Uniform Hz=1 everywhere; on the +x face, J = x_hat x H =
        # (0, -Hz, Hy) = (0, -1, 0).
        grid = make_grid()
        fields = FieldSet.zeros(grid)
        fields.hz[...] = 1.0
        config = NTFFConfig(gap=3, directions=np.array([[1.0, 0.0, 0.0]]))
        acc = NTFFAccumulator(grid, config, steps=1)
        acc.accumulate(fields.components(), 0)
        A = acc.A[0]
        # contributions exist, only in y (and possibly x from y/z faces:
        # y faces give n x H = (Hz, 0, -Hx)*side -> x component; so check
        # z-component is exactly zero and y is negative overall on +x face
        assert np.allclose(A[:, 2], 0.0)
        assert A.sum(axis=0)[1] == pytest.approx(0.0, abs=1e-12)  # +x and -x cancel
        assert np.abs(A).sum() > 0

    def test_retardation_spreads_bins(self):
        # A single direction along +x: points at different x land in
        # different bins.
        grid = make_grid()
        fields = FieldSet.zeros(grid)
        fields.hy[...] = 1.0
        config = NTFFConfig(gap=3, directions=np.array([[1.0, 0.0, 0.0]]))
        acc = NTFFAccumulator(grid, config, steps=1)
        acc.accumulate(fields.components(), 0)
        occupied = np.nonzero(np.abs(acc.A[0]).sum(axis=1))[0]
        assert len(occupied) > 1  # multiple retarded bins hit

    def test_reset(self):
        grid = make_grid()
        fields = FieldSet.zeros(grid)
        fields.ex[...] = 1.0
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), steps=1)
        acc.accumulate(fields.components(), 0)
        assert np.abs(acc.F).sum() > 0
        acc.reset()
        assert not acc.F.any()


class TestRestrictedAccumulators:
    @pytest.mark.parametrize("pshape", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 2)])
    def test_rank_partials_partition_surface(self, pshape):
        grid = make_grid((12, 11, 10))
        config = NTFFConfig(gap=3)
        decomp = BlockDecomposition(grid.node_shape, pshape, ghost=1)
        full = NTFFAccumulator(grid, config, steps=1)
        parts = [
            NTFFAccumulator(grid, config, steps=1, restrict=(decomp, r))
            for r in range(decomp.nprocs)
        ]
        assert sum(p.npoints for p in parts) == full.npoints

    def test_rank_partials_sum_to_global(self):
        grid = make_grid()
        config = NTFFConfig(gap=3)
        decomp = BlockDecomposition(grid.node_shape, (2, 2, 1), ghost=1)
        rng = np.random.default_rng(9)
        fields = FieldSet.zeros(grid)
        for comp in fields.components():
            fields[comp][...] = rng.normal(size=grid.node_shape)

        full = NTFFAccumulator(grid, config, steps=1)
        full.accumulate(fields.components(), 0)

        total_A = np.zeros_like(full.A)
        total_F = np.zeros_like(full.F)
        from repro.archetypes.mesh import scatter_array

        for r in range(decomp.nprocs):
            acc = NTFFAccumulator(grid, config, steps=1, restrict=(decomp, r))
            local_arrays = {
                comp: scatter_array(decomp, arr)[r]
                for comp, arr in fields.components().items()
            }
            acc.accumulate(local_arrays, 0)
            total_A += acc.A
            total_F += acc.F
        # Same reals, possibly different FP order: allclose, tight.
        np.testing.assert_allclose(total_A, full.A, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(total_F, full.F, rtol=1e-12, atol=1e-15)

    def test_bins_identical_across_ranks(self):
        grid = make_grid()
        config = NTFFConfig(gap=3)
        decomp = BlockDecomposition(grid.node_shape, (2, 2, 2), ghost=1)
        accs = [
            NTFFAccumulator(grid, config, steps=3, restrict=(decomp, r))
            for r in range(8)
        ]
        assert len({a.nbins for a in accs}) == 1
        full = NTFFAccumulator(grid, config, steps=3)
        assert accs[0].nbins == full.nbins


# -- oracle: the per-face loop the batched accumulator replaced ---------------


def per_face_reference(grid, config, steps, restrict, field_steps):
    """The per-face, per-direction, per-component accumulation as the
    accumulator did it before it was batched: face geometry built face
    by face in ``FACE_ORDER``, 18 ``np.add.at`` calls per face and step.
    ``field_steps`` is a list of ``(step, arrays)``; returns ``(A, F,
    faces)``."""
    from repro.apps.fdtd.constants import C0
    from repro.apps.fdtd.ntff import _NORMALS, FACE_ORDER

    directions = np.asarray(config.directions, dtype=np.float64)
    ndirs = len(directions)
    bounds = config.surface_bounds(grid)
    center = np.array([(lo + hi) / 2.0 for lo, hi in bounds])
    spacing = np.asarray(grid.spacing)
    if restrict is None:
        owned = [(0, n + 1) for n in grid.shape]
        off = np.zeros(3, dtype=np.int64)
    else:
        decomp, rank = restrict
        owned = decomp.owned_bounds(rank)
        off = np.array([decomp.ghost - a for (a, b) in owned], dtype=np.int64)
    max_delay = NTFFAccumulator(grid, config, steps)._max_delay
    nbins = steps + 2 * max_delay

    faces = []
    for axis, side in FACE_ORDER:
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
        if restrict is not None and not (owned[axis][0] <= plane < owned[axis][1]):
            continue
        ii, jj, kk = np.meshgrid(*ranges, indexing="ij")
        idx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
        if idx.shape[0] == 0:
            continue
        phys = (idx - center) * spacing
        delays = np.empty((ndirs, idx.shape[0]), dtype=np.int64)
        for d, rhat in enumerate(directions):
            delays[d] = np.rint((phys @ rhat) / (C0 * grid.dt)).astype(np.int64)
        delays += max_delay
        transverse = [a for a in range(3) if a != axis]
        faces.append(
            {
                "axis": axis,
                "normal": _NORMALS[(axis, side)],
                "idx": idx,
                "delays": delays,
                "dA": spacing[transverse[0]] * spacing[transverse[1]],
            }
        )

    A = np.zeros((ndirs, nbins, 3))
    F = np.zeros((ndirs, nbins, 3))
    for step, arrays in field_steps:
        for face in faces:
            idx = face["idx"]
            i, j, k = idx[:, 0] + off[0], idx[:, 1] + off[1], idx[:, 2] + off[2]
            h = np.stack(
                [arrays["hx"][i, j, k], arrays["hy"][i, j, k], arrays["hz"][i, j, k]],
                axis=1,
            )
            e = np.stack(
                [arrays["ex"][i, j, k], arrays["ey"][i, j, k], arrays["ez"][i, j, k]],
                axis=1,
            )
            n = face["normal"]
            J = np.cross(np.broadcast_to(n, h.shape), h) * face["dA"]
            M = -np.cross(np.broadcast_to(n, e.shape), e) * face["dA"]
            for d in range(ndirs):
                bins = step + face["delays"][d]
                for c in range(3):
                    np.add.at(A[d, :, c], bins, J[:, c])
                    np.add.at(F[d, :, c], bins, M[:, c])
    return A, F, faces


ORACLE_SHAPE = (12, 11, 10)
ORACLE_STEPS = 9
FIRST_STEP = 3  # a nonzero start: bins are shifted by the step


def random_steps(shape, seed, nsteps=5):
    rng = np.random.default_rng(seed)
    return [
        (
            FIRST_STEP + s,
            {c: rng.normal(size=shape) for c in ("ex", "ey", "ez", "hx", "hy", "hz")},
        )
        for s in range(nsteps)
    ]


def restrictions():
    grid = make_grid(ORACLE_SHAPE)
    cases = [("full", None)]
    for pshape in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (6, 1, 1)]:
        decomp = BlockDecomposition(grid.node_shape, pshape, ghost=1)
        cases += [
            (f"{'x'.join(map(str, pshape))}-rank{r}", (decomp, r))
            for r in range(decomp.nprocs)
        ]
    return cases


class TestBatchedAccumulationOracle:
    """The batched scatter-add must reproduce the per-face loop bit for
    bit: ``np.add.at`` applies duplicates in element order, and the
    concatenated faces hand every bin its addends in the loop's order."""

    @pytest.mark.parametrize(
        "restrict", [r for _, r in restrictions()], ids=[n for n, _ in restrictions()]
    )
    def test_bitwise_equal_to_per_face_loop(self, restrict):
        from repro.util import bitwise_equal_arrays

        grid = make_grid(ORACLE_SHAPE)
        config = NTFFConfig(gap=3)
        acc = NTFFAccumulator(grid, config, ORACLE_STEPS, restrict=restrict)
        steps = random_steps(acc.shape, seed=17)
        ref_A, ref_F, faces = per_face_reference(
            grid, config, ORACLE_STEPS, restrict, steps
        )
        for step, arrays in steps:
            acc.accumulate(arrays, step)
        assert bitwise_equal_arrays(acc.A, ref_A)
        assert bitwise_equal_arrays(acc.F, ref_F)
        assert acc.npoints == sum(f["idx"].shape[0] for f in faces)
        if acc.npoints == 0:  # a rank owning no surface point: a no-op
            assert not acc.A.any() and not acc.F.any()
        else:
            assert acc.A.any() and acc.F.any()

    def test_cases_cover_the_hard_orders(self):
        # The default directions include +x: on an x face every point
        # lands in one bin, so a whole face's addends are duplicates.
        assert default_directions()[0].tolist() == [1.0, 0.0, 0.0]
        grid = make_grid(ORACLE_SHAPE)
        _, _, faces = per_face_reference(grid, NTFFConfig(gap=3), 1, None, [])
        x_faces = [f for f in faces if f["axis"] == 0]
        assert len(x_faces) == 2
        for face in x_faces:
            assert len(set(face["delays"][0].tolist())) == 1
            assert face["idx"].shape[0] > 1
        # (6,1,1) leaves ranks with no surface point at all.
        empty = [r for name, r in restrictions() if name.startswith("6x1x1")]
        assert any(
            NTFFAccumulator(grid, NTFFConfig(gap=3), 1, restrict=r).npoints == 0
            for r in empty
        )

    def test_strided_potentials_receive_the_sums(self):
        from repro.util import bitwise_equal_arrays

        grid = make_grid(ORACLE_SHAPE)
        config = NTFFConfig(gap=3)
        acc = NTFFAccumulator(grid, config, ORACLE_STEPS)
        steps = random_steps(acc.shape, seed=23)
        ref_A, ref_F, _ = per_face_reference(grid, config, ORACLE_STEPS, None, steps)
        # A window of bins in a longer array: no flat view exists.
        big_A = np.zeros((ref_A.shape[0], ref_A.shape[1] + 2, 3))
        A = big_A[:, 1:-1]
        assert not np.shares_memory(A.reshape(-1), A)
        # A leading-axis slice of a larger array: a flat view with an offset.
        big_F = np.zeros((ref_F.shape[0] + 2,) + ref_F.shape[1:])
        F = big_F[1:-1]
        for step, arrays in steps:
            acc.accumulate_into(arrays, step, A, F)
        assert bitwise_equal_arrays(A, ref_A)
        assert bitwise_equal_arrays(F, ref_F)
        assert not big_A[:, 0].any() and not big_A[:, -1].any()
        assert not big_F[0].any() and not big_F[-1].any()

    def test_wrong_field_shape_is_a_geometry_error(self):
        grid = make_grid(ORACLE_SHAPE)
        decomp = BlockDecomposition(grid.node_shape, (2, 1, 1), ghost=1)
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), 2, restrict=(decomp, 1))
        # Global arrays handed to a rank's accumulator.
        global_arrays = random_steps(grid.node_shape, seed=3, nsteps=1)[0][1]
        with pytest.raises(GeometryError, match="gathers from"):
            acc.accumulate(global_arrays, 0)
        # Another rank's local arrays.
        other = random_steps(decomp.local_shape(0), seed=3, nsteps=1)[0][1]
        assert decomp.local_shape(0) != acc.shape
        with pytest.raises(GeometryError, match="gathers from"):
            acc.accumulate(other, 0)
        assert not acc.A.any() and not acc.F.any()

    def test_wrong_potential_shape_is_a_geometry_error(self):
        grid = make_grid(ORACLE_SHAPE)
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), 2)
        arrays = random_steps(acc.shape, seed=5, nsteps=1)[0][1]
        short = np.zeros((acc.A.shape[0], acc.nbins - 1, 3))
        with pytest.raises(GeometryError, match="potentials"):
            acc.accumulate_into(arrays, 0, short, acc.F)

    def test_pickled_accumulator_drops_its_work_arrays(self):
        import pickle

        from repro.util import bitwise_equal_arrays

        grid = make_grid(ORACLE_SHAPE)
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), ORACLE_STEPS)
        steps = random_steps(acc.shape, seed=29)
        step, arrays = steps[0]
        acc.accumulate(arrays, step)
        copy = pickle.loads(pickle.dumps(acc))
        assert copy._work is None and acc._work is not None
        for step, arrays in steps[1:]:
            acc.accumulate(arrays, step)
            copy.accumulate(arrays, step)
        assert bitwise_equal_arrays(copy.A, acc.A)
        assert bitwise_equal_arrays(copy.F, acc.F)


# -- oracle: the cross product the signed-field gather replaced ---------------


def cross_product_reference(acc, field_steps):
    """The accumulation as it was before the currents became signed
    field values: ``np.cross``'s arithmetic for every point at once,
    ``(n x v)_c = n_{c+1} v_{c+2} - n_{c+2} v_{c+1}``, ``J = n x H``,
    ``M = -n x E``, times dA, one copy per direction, scattered
    (direction, component, point).  Returns ``(A, F)``."""
    from repro.apps.fdtd.ntff import _FIELDS, _NORMALS, FACE_ORDER

    ndirs, n = acc._delays.shape
    normals = np.array([_NORMALS[face] for face in FACE_ORDER])[acc._face].T
    na, nb = normals[[1, 2, 0]], normals[[2, 0, 1]]
    dA = acc._face_dA[acc._face]
    bins = (np.arange(ndirs)[:, None] * acc.nbins + acc._delays) * 3
    scatter = (bins[:, None, :] + np.arange(3)[:, None]).ravel()
    A, F = np.zeros_like(acc.A), np.zeros_like(acc.F)
    for step, arrays in field_steps:
        v = np.stack([arrays[c].take(acc._gather) for c in _FIELDS])
        v = v.reshape(2, 3, n)
        current = na * v[:, [2, 0, 1]] - nb * v[:, [1, 2, 0]]
        current[1] = -current[1]
        for target, c in zip((A, F), current):
            values = np.broadcast_to(c * dA, (ndirs, 3, n)).ravel()
            np.add.at(target.reshape(-1)[3 * step :], scatter, values)
    return A, F


#: Finite values the signed-field gather must treat exactly as the cross
#: product did: signed zeros, subnormals and magnitudes near the ends of
#: the exponent range.
HARD_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
     1e200, -1e200, 1e-200, -1e-200, 1.0, -1.0]
)


def hard_steps(shape, seed, nsteps=5):
    rng = np.random.default_rng(seed)
    steps = []
    for s in range(nsteps):
        arrays = {}
        for c in ("ex", "ey", "ez", "hx", "hy", "hz"):
            normal = rng.normal(size=shape)
            hard = rng.choice(HARD_VALUES, size=shape)
            arrays[c] = np.where(rng.random(shape) < 0.5, hard, normal)
        steps.append((FIRST_STEP + s, arrays))
    return steps


def signed_field_cases():
    grid = make_grid(ORACLE_SHAPE)
    cases = [("full", None)]
    for pshape in [(2, 1, 1), (1, 2, 1), (2, 2, 1)]:
        decomp = BlockDecomposition(grid.node_shape, pshape, ghost=1)
        cases += [
            (f"{'x'.join(map(str, pshape))}-rank{r}", (decomp, r))
            for r in range(decomp.nprocs)
        ]
    return cases


class TestSignedFieldCurrents:
    """Each current component is one signed field value: bitwise the
    cross product's potentials on finite fields."""

    @pytest.mark.parametrize(
        "restrict",
        [r for _, r in signed_field_cases()],
        ids=[n for n, _ in signed_field_cases()],
    )
    def test_bitwise_equal_to_the_cross_product(self, restrict):
        from repro.util import bitwise_equal_arrays

        grid = make_grid(ORACLE_SHAPE)
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), ORACLE_STEPS, restrict)
        steps = hard_steps(acc.shape, seed=31)
        ref_A, ref_F = cross_product_reference(acc, steps)
        for step, arrays in steps:
            acc.accumulate(arrays, step)
        assert bitwise_equal_arrays(acc.A, ref_A)
        assert bitwise_equal_arrays(acc.F, ref_F)
        assert acc.A.any() and acc.F.any()
        assert not np.signbit(acc.A[acc.A == 0]).any()  # no -0.0 bin

    def test_the_cases_cover_every_face(self):
        grid = make_grid(ORACLE_SHAPE)
        full = NTFFAccumulator(grid, NTFFConfig(gap=3), ORACLE_STEPS)
        assert set(full._face.tolist()) == set(range(6))
        for name, restrict in signed_field_cases()[1:]:
            acc = NTFFAccumulator(grid, NTFFConfig(gap=3), 1, restrict)
            assert 0 < acc.npoints < full.npoints, name


class TestScatterAddGuard:
    """``np.add.at`` with a 2-D index and 1-D values writes garbage in
    NumPy 2.4.6 instead of refusing them: ``_scatter_add`` refuses."""

    @pytest.mark.parametrize(
        "index, values",
        [
            (np.array([[0, 1], [5, 6]]), np.array([1.0, 2.0])),
            (np.array([0, 1, 5]), np.array([1.0, 2.0])),
            (np.array([0, 1]), np.array([[1.0, 2.0]])),
            (np.array(3), np.array(1.0)),
        ],
        ids=["2d-index", "lengths-differ", "2d-values", "0d"],
    )
    def test_misshapen_operands_are_a_geometry_error(self, index, values):
        from repro.apps.fdtd.ntff import _scatter_add

        target = np.zeros((2, 4))
        with pytest.raises(GeometryError, match="1-D index"):
            _scatter_add(target, 1, index, values)
        assert not target.any()

    def test_flat_operands_land_in_order(self):
        from repro.apps.fdtd.ntff import _scatter_add

        target = np.zeros((2, 4))
        _scatter_add(target, 1, np.array([0, 1, 0, 6]), np.array([1.0, 2.0, 3.0, 4.0]))
        assert target.reshape(-1).tolist() == [0, 4, 2, 0, 0, 0, 0, 4]
