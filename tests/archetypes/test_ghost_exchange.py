"""Ghost regions, scatter/gather, and the boundary-exchange operation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archetypes.mesh import (
    BlockDecomposition,
    MeshProgramBuilder,
    boundary_exchange_op,
    gather_array,
    ghost_face_region,
    local_like,
    owned_face_region,
    scatter_array,
)
from repro.errors import ArchetypeError
from repro.refinement import (
    SimulatedParallelProgram,
    make_stores,
    to_parallel_system,
)
from repro.refinement.store import AddressSpace
from repro.refinement.transform import exchange_channel_name
from repro.runtime import ThreadedEngine


def global_field(shape, seed=1):
    return np.random.default_rng(seed).normal(size=shape)


def run_derived(d, ops, stores):
    """Run the exchanges' mechanically derived message-passing form
    (paper section 3.3) under threads, from per-rank ``stores``."""
    prog = SimulatedParallelProgram(d.nprocs, name="exchange")
    for op in ops:
        prog.exchange(op)
    system = to_parallel_system(
        prog, initial_stores=[dict(s.items()) for s in stores]
    )
    return ThreadedEngine().run(system)


class TestFaceRegions:
    def test_regions_disjoint_owned_vs_ghost(self):
        d = BlockDecomposition((8, 8), (2, 2), ghost=1)
        local = local_like(d, 0)
        marks = np.zeros_like(local)
        for axis in range(2):
            for side in (-1, 1):
                marks[owned_face_region(d, 0, axis, side)] += 1
                marks[ghost_face_region(d, 0, axis, side)] += 10
        # owned strips may overlap each other at block corners? No:
        # along non-face axes they span the interior, so two owned
        # strips of different axes CAN share interior corner cells.
        assert marks.max() <= 12  # no owned/ghost overlap beyond corners

    def test_ghost_regions_lie_outside_interior(self):
        d = BlockDecomposition((9, 6), (3, 2), ghost=2)
        for rank in range(d.nprocs):
            interior = np.zeros(d.local_shape(rank), dtype=bool)
            interior[d.interior_slices(rank)] = True
            for axis in range(2):
                for side in (-1, 1):
                    region = np.zeros_like(interior)
                    region[ghost_face_region(d, rank, axis, side)] = True
                    assert not (region & interior).any()

    def test_owned_regions_lie_inside_interior(self):
        d = BlockDecomposition((9, 6), (3, 2), ghost=2)
        for rank in range(d.nprocs):
            interior = np.zeros(d.local_shape(rank), dtype=bool)
            interior[d.interior_slices(rank)] = True
            for axis in range(2):
                for side in (-1, 1):
                    region = np.zeros_like(interior)
                    region[owned_face_region(d, rank, axis, side)] = True
                    assert (region <= interior).all()

    def test_face_region_shape(self):
        d = BlockDecomposition((8, 6), (2, 2), ghost=2)
        local = local_like(d, 0)
        for region in (owned_face_region, ghost_face_region):
            assert local[region(d, 0, 0, 1)].shape == (2, 3)
            assert local[region(d, 0, 1, 1)].shape == (4, 2)

    def test_zero_ghost_rejected(self):
        d = BlockDecomposition((8, 8), (2, 2), ghost=0)
        from repro.errors import DecompositionError

        with pytest.raises(DecompositionError):
            owned_face_region(d, 0, 0, 1)


class TestScatterGather:
    @given(
        st.tuples(st.integers(4, 10), st.integers(4, 10)),
        st.sampled_from([(1, 1), (2, 1), (2, 2), (1, 3)]),
        st.integers(0, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, gshape, pshape, ghost):
        if any(n // p < max(ghost, 1) for n, p in zip(gshape, pshape)):
            return
        d = BlockDecomposition(gshape, pshape, ghost=ghost)
        field = global_field(gshape)
        locals_ = scatter_array(d, field)
        np.testing.assert_array_equal(gather_array(d, locals_), field)

    def test_scatter_ghosts_zero_by_default(self):
        d = BlockDecomposition((8,), (2,), ghost=1)
        locals_ = scatter_array(d, np.ones(8))
        assert locals_[0][0] == 0.0 and locals_[0][-1] == 0.0
        assert locals_[0][1:-1].sum() == 4.0

    def test_scatter_fill_ghosts(self):
        d = BlockDecomposition((8,), (2,), ghost=1)
        field = np.arange(8.0)
        locals_ = scatter_array(d, field, fill_ghosts=True)
        # rank 0 owns [0,4): its high ghost holds global index 4.
        assert locals_[0][-1] == 4.0
        # physical-boundary ghost stays zero.
        assert locals_[0][0] == 0.0
        assert locals_[1][0] == 3.0

    def test_gather_shape_checks(self):
        from repro.errors import DecompositionError

        d = BlockDecomposition((8,), (2,), ghost=1)
        with pytest.raises(DecompositionError):
            gather_array(d, [np.zeros(3)])
        with pytest.raises(DecompositionError):
            gather_array(d, [np.zeros(3), np.zeros(7)])


class TestBoundaryExchangeOp:
    @pytest.mark.parametrize(
        "gshape,pshape,ghost",
        [
            ((12,), (3,), 1),
            ((8, 8), (2, 2), 1),
            ((9, 6), (3, 2), 2),
            ((6, 6, 6), (2, 1, 3), 1),
        ],
    )
    def test_exchange_fills_face_ghosts_exactly(self, gshape, pshape, ghost):
        d = BlockDecomposition(gshape, pshape, ghost=ghost)
        field = global_field(gshape)
        locals_ = scatter_array(d, field)
        stores = [
            AddressSpace({"u": arr}, owner=i) for i, arr in enumerate(locals_)
        ]
        op = boundary_exchange_op(d, "u")
        op.validate(nprocs=d.nprocs, stores=stores)
        op.apply(stores)
        # Reference: scatter with ghosts filled from the global field,
        # compared on face regions only (faces are what the op fills).
        reference = scatter_array(d, field, fill_ghosts=True)
        for rank in range(d.nprocs):
            for axis in range(d.ndim):
                for side in (-1, 1):
                    if d.pgrid.neighbor(rank, axis, side) is None:
                        continue
                    region = ghost_face_region(d, rank, axis, side)
                    np.testing.assert_array_equal(
                        stores[rank]["u"][region], reference[rank][region]
                    )

    def test_interior_untouched(self):
        d = BlockDecomposition((8, 8), (2, 2), ghost=1)
        field = global_field((8, 8))
        locals_ = scatter_array(d, field)
        stores = [AddressSpace({"u": a.copy()}, owner=i) for i, a in enumerate(locals_)]
        boundary_exchange_op(d, "u").apply(stores)
        for rank in range(4):
            np.testing.assert_array_equal(
                stores[rank]["u"][d.interior_slices(rank)],
                locals_[rank][d.interior_slices(rank)],
            )

    def test_single_process_is_noop(self):
        d = BlockDecomposition((8,), (1,), ghost=1)
        op = boundary_exchange_op(d, "u")
        assert op.assignments == []
        op.validate(nprocs=1)  # empty participants: vacuous (iii)

    def test_passes_restriction_checks(self):
        d = BlockDecomposition((6, 6, 6), (2, 2, 2), ghost=1)
        op = boundary_exchange_op(d, "u")
        stores = make_stores(8, {"u": np.zeros(d.local_shape(0))})
        op.validate(nprocs=8, stores=stores)

    def test_rank_offset(self):
        d = BlockDecomposition((8,), (2,), ghost=1)
        op = boundary_exchange_op(d, "u", rank_offset=3)
        procs = {a.dst.proc for a in op.assignments} | {
            a.src.proc for a in op.assignments
        }
        assert procs == {3, 4}


class TestMessagePassingExchange:
    @pytest.mark.parametrize(
        "gshape,pshape,ghost",
        [((12,), (4,), 1), ((8, 8), (2, 2), 2), ((6, 6, 6), (1, 2, 2), 1)],
    )
    def test_msg_exchange_matches_dataexchange(self, gshape, pshape, ghost):
        d = BlockDecomposition(gshape, pshape, ghost=ghost)
        field = global_field(gshape, seed=7)
        locals_ = scatter_array(d, field)

        # Reference: the DataExchange applied sequentially.
        ref_stores = [
            AddressSpace({"u": a.copy()}, owner=i) for i, a in enumerate(locals_)
        ]
        boundary_exchange_op(d, "u").apply(ref_stores)

        # Candidate: its derived message-passing form under threads.
        result = run_derived(
            d,
            [boundary_exchange_op(d, "u")],
            [{"u": a.copy()} for a in locals_],
        )
        for rank in range(d.nprocs):
            np.testing.assert_array_equal(
                result.stores[rank]["u"], ref_stores[rank]["u"]
            )


class TestDeclaredFaces:
    """``faces=``: ship only the ghost faces the next block reads."""

    #: a one-sided two-variable footprint: u reads low ghosts along
    #: axes 0 and 2, v a high ghost along axis 1
    FACES = frozenset({("u", 0, -1), ("u", 2, -1), ("v", 1, 1)})

    def setup_stores(self, d):
        return [
            AddressSpace(
                {
                    "u": scatter_array(d, global_field(d.grid_shape, 3))[r],
                    "v": scatter_array(d, global_field(d.grid_shape, 4))[r],
                },
                owner=r,
            )
            for r in range(d.nprocs)
        ]

    def test_only_declared_faces_are_assigned(self):
        d = BlockDecomposition((6, 6, 6), (2, 2, 2), ghost=1)
        for var in ("u", "v"):
            full = boundary_exchange_op(d, var)
            op = boundary_exchange_op(d, var, faces=self.FACES)
            kept = [
                a
                for a in full.assignments
                if any(
                    a.dst.region == ghost_face_region(d, a.dst.proc, axis, side)
                    for v, axis, side in self.FACES
                    if v == var
                )
            ]
            assert op.assignments == kept
            assert 0 < len(kept) < len(full.assignments)
            # ranks left without an assignment are not participants
            assert op.participants == {a.dst.proc for a in op.assignments}
            op.validate(nprocs=d.nprocs, stores=self.setup_stores(d))

    def test_msg_form_posts_exactly_the_dataexchange_messages(self):
        d = BlockDecomposition((6, 6, 6), (2, 2, 2), ghost=1)
        ref_stores = self.setup_stores(d)
        ops = [
            boundary_exchange_op(d, var, faces=self.FACES)
            for var in ("u", "v")
        ]
        # one combined message per (sender, receiver) pair and exchange
        expected_msgs: dict[str, int] = {}
        for op in ops:
            op.apply(ref_stores)
            for src, dst in {
                (a.src.proc, a.dst.proc) for a in op.cross_partition()
            }:
                name = exchange_channel_name(src, dst)
                expected_msgs[name] = expected_msgs.get(name, 0) + 1

        result = run_derived(d, ops, self.setup_stores(d))
        sent = {
            name: sends
            for name, (sends, _) in result.channel_stats.items()
            if sends
        }
        assert sent == expected_msgs
        # undeclared ghosts keep their old values in both forms
        for rank in range(d.nprocs):
            for var in ("u", "v"):
                np.testing.assert_array_equal(
                    result.stores[rank][var], ref_stores[rank][var]
                )

    @pytest.mark.parametrize(
        "bad", [("w", 0, 1), ("u", 3, 1), ("u", 0, 0), ("u", 0, 2)]
    )
    def test_unknown_face_raises(self, bad):
        d = BlockDecomposition((6, 6, 6), (2, 1, 1), ghost=1)
        b = MeshProgramBuilder(d, use_host=False)
        b.declare_distributed("u").declare_distributed("w")
        with pytest.raises(ArchetypeError, match="faces entry"):
            b.exchange_boundaries("u", faces={bad})
        with pytest.raises(ArchetypeError, match="faces entry"):
            b.begin_exchange_boundaries("u", faces={bad})

    def test_corners_with_faces_raises(self):
        d = BlockDecomposition((6, 6), (2, 2), ghost=2)
        b = MeshProgramBuilder(d, use_host=False).declare_distributed("u")
        with pytest.raises(ArchetypeError, match="corners"):
            b.exchange_boundaries("u", corners=True, faces={("u", 0, 1)})
