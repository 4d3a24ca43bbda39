"""Reduction stages and host redistribution stages."""

import numpy as np
import pytest

from repro.archetypes.mesh import (
    BlockDecomposition,
    broadcast_stage,
    collect_stage,
    combine_block,
    distribute_stage,
    gather_stage,
    partials_buffer,
    scatter_array,
)
from repro.errors import ArchetypeError
from repro.refinement import SimulatedParallelProgram
from repro.refinement.store import AddressSpace


class TestGatherCombineBroadcast:
    def make_stores(self, nranks=4, root=None):
        root = nranks if root is None else root
        stores = []
        for r in range(nranks):
            stores.append(
                AddressSpace({"partial": np.array([float(10 + r)])}, owner=r)
            )
        # root (host) store
        stores.append(
            AddressSpace(
                {
                    "buf": partials_buffer(nranks, np.zeros(1)),
                    "total": np.zeros(1),
                },
                owner=root,
            )
        )
        return stores

    def test_reduce_stages_sum(self):
        nranks, root = 4, 4
        stores = self.make_stores(nranks)
        stages = [
            gather_stage(range(nranks), "partial", "buf", root),
            combine_block("buf", "total", nranks, root),
        ]
        prog = SimulatedParallelProgram(nranks + 1, stages)
        prog.validate()
        prog.run(stores=stores)
        assert stores[root]["total"][0] == 10.0 + 11 + 12 + 13

    def test_combine_order_is_rank_order(self):
        # Sum of values spanning magnitudes: result must equal the
        # explicit rank-order fold, bit for bit.
        nranks, root = 3, 3
        values = [1e16, 1.0, 1.0]
        stores = [
            AddressSpace({"partial": np.array([v])}, owner=r)
            for r, v in enumerate(values)
        ]
        stores.append(
            AddressSpace(
                {"buf": partials_buffer(nranks, np.zeros(1)), "total": np.zeros(1)},
                owner=root,
            )
        )
        stages = [
            gather_stage(range(nranks), "partial", "buf", root),
            combine_block("buf", "total", nranks, root),
        ]
        SimulatedParallelProgram(nranks + 1, stages).run(stores=stores)
        expected = (np.float64(1e16) + 1.0) + 1.0  # absorbs both 1.0s
        assert stores[root]["total"][0] == expected
        # ... and differs from a different order (the associativity trap)
        assert expected != 1e16 + (1.0 + np.float64(1.0))

    def test_custom_op(self):
        nranks, root = 4, 4
        stores = self.make_stores(nranks)
        stages = [
            gather_stage(range(nranks), "partial", "buf", root),
            combine_block("buf", "total", nranks, root, op=np.maximum),
        ]
        SimulatedParallelProgram(nranks + 1, stages).run(stores=stores)
        assert stores[root]["total"][0] == 13.0

    def test_reduce_with_broadcast(self):
        nranks, root = 3, 3
        stores = [
            AddressSpace(
                {"partial": np.array([1.0 * (r + 1)]), "everywhere": np.zeros(1)},
                owner=r,
            )
            for r in range(nranks)
        ]
        stores.append(
            AddressSpace(
                {"buf": partials_buffer(nranks, np.zeros(1)), "total": np.zeros(1)},
                owner=root,
            )
        )
        stages = [
            gather_stage(range(nranks), "partial", "buf", root),
            combine_block("buf", "total", nranks, root),
            broadcast_stage(range(nranks), "total", "everywhere", root),
        ]
        SimulatedParallelProgram(nranks + 1, stages).run(stores=stores)
        for r in range(nranks):
            assert stores[r]["everywhere"][0] == 6.0

    def test_broadcast_same_var_rejected(self):
        with pytest.raises(ArchetypeError, match="distinct"):
            broadcast_stage([0, 1], "g", "g", root=2)

    def test_gather_participants_is_root_only(self):
        op = gather_stage([0, 1, 2], "p", "buf", root=3)
        assert op.participants == frozenset({3})
        op.validate(nprocs=4)


class TestDistributeCollect:
    def test_roundtrip_through_host(self):
        d = BlockDecomposition((8, 6), (2, 2), ghost=1)
        host = d.nprocs
        field = np.random.default_rng(3).normal(size=(8, 6))
        stores = [
            AddressSpace({"u": np.zeros(d.local_shape(r))}, owner=r)
            for r in range(d.nprocs)
        ]
        stores.append(
            AddressSpace({"u": field.copy(), "u_out": np.zeros((8, 6))}, owner=host)
        )
        dist = distribute_stage(d, "u", host)
        coll = collect_stage(d, "u", host, host_var="u_out")
        prog = SimulatedParallelProgram(d.nprocs + 1, [dist, coll])
        prog.validate()
        prog.run(stores=stores)
        np.testing.assert_array_equal(stores[host]["u_out"], field)

    def test_distribute_matches_scatter(self):
        d = BlockDecomposition((9,), (3,), ghost=1)
        host = 3
        field = np.arange(9.0)
        stores = [
            AddressSpace({"u": np.zeros(d.local_shape(r))}, owner=r)
            for r in range(3)
        ]
        stores.append(AddressSpace({"u": field.copy()}, owner=host))
        distribute_stage(d, "u", host).apply(stores)
        expected = scatter_array(d, field)
        for r in range(3):
            np.testing.assert_array_equal(stores[r]["u"], expected[r])

    def test_collect_ignores_ghosts(self):
        d = BlockDecomposition((8,), (2,), ghost=1)
        host = 2
        stores = [
            AddressSpace({"u": np.full(d.local_shape(r), -99.0)}, owner=r)
            for r in range(2)
        ]
        for r in range(2):
            stores[r]["u"][d.interior_slices(r)] = float(r + 1)
        stores.append(AddressSpace({"u": np.zeros(8)}, owner=host))
        collect_stage(d, "u", host).apply(stores)
        np.testing.assert_array_equal(
            stores[host]["u"], np.array([1.0] * 4 + [2.0] * 4)
        )
