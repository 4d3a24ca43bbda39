"""Constants in the mesh skeleton (paper section 4.4 step 1).

A distributed array whose global initial value is *read-only* is a
constant: its sections are read-only, the host holds the global itself,
no run copies any of it, and a stage that would assign it is refused
while the program is being built.
"""

import numpy as np
import pytest

from repro.archetypes.mesh import BlockDecomposition, MeshProgramBuilder
from repro.errors import ArchetypeError, ProcessFailedError, StoreError
from repro.runtime import ThreadedEngine
from repro.util import bitwise_equal_arrays, is_constant

GRID = (8, 6)


def frozen(arr):
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def builder(use_host=True):
    b = MeshProgramBuilder(BlockDecomposition(GRID, (2, 1), ghost=1), use_host)
    b.declare_distributed("u", np.arange(48.0).reshape(GRID))
    b.declare_distributed("k", frozen(np.linspace(1.0, 2.0, 48).reshape(GRID)))
    return b


def scale(store, rank):
    store["u"][...] = store["u"] * store["k"]


class TestInitialStores:
    def test_sections_are_constants_and_the_host_holds_the_global(self):
        b = builder()
        stores = b.initial_stores()
        global_k = b._decls["k"].payload
        for rank in range(b.grid_size):
            assert is_constant(stores[rank]["k"])
            assert not is_constant(stores[rank]["u"])
        assert stores[b.host]["k"] is global_k
        assert stores[b.host]["u"] is not b._decls["u"].payload

    def test_duplicated_and_host_only_constants_are_shared(self):
        b = builder()
        dup, host_only = frozen([1, 2, 3]), frozen([4, 5])
        b.declare_duplicated("d", dup)
        b.declare_host_only("h", host_only)
        b.declare_grid_only("g", frozen([6.0]))
        stores = b.initial_stores()
        assert all(s["d"] is dup for s in stores)
        assert stores[b.host]["h"] is host_only
        assert stores[0]["g"] is stores[1]["g"]

    def test_a_writable_global_behaves_as_before(self):
        b = builder()
        first, second = b.initial_stores(), b.initial_stores()
        assert first[0]["u"] is not second[0]["u"]
        first[0]["u"][...] = -1.0  # no effect on the declaration
        assert (second[0]["u"] != -1.0).any()


class TestRuns:
    def test_simulated_and_parallel_agree_and_share_the_constant(self):
        b = builder()
        b.grid_spmd(scale, name="scale").collect("u")
        sim = b.run_simulated()
        system = b.to_parallel()
        result = ThreadedEngine().run(system)
        assert bitwise_equal_arrays(
            result.stores[b.host]["u"], np.asarray(sim[b.host]["u"])
        )
        for rank, spec in enumerate(system.processes):
            assert result.stores[rank]["k"] is spec.store["k"]

    def test_a_local_block_writing_a_constant_fails_with_its_name(self):
        b = builder()

        def clobber(store, rank):
            store.write_region("k", None, np.zeros_like(store["k"]))

        b.grid_spmd(clobber, name="clobber")
        with pytest.raises(StoreError, match="constant 'k'"):
            b.run_simulated()
        with pytest.raises(ProcessFailedError) as info:
            ThreadedEngine().run(b.to_parallel())
        assert isinstance(info.value.original, StoreError)


class TestStagesTargetingAConstant:
    """Refused when the stage is appended, not at its first assignment."""

    @pytest.mark.parametrize(
        "stage",
        [
            lambda b: b.distribute("k"),
            lambda b: b.collect("k"),
            lambda b: b.exchange_boundaries("k"),
            lambda b: b.exchange_boundaries("k", corners=True),
            lambda b: b.exchange_boundaries("u", "k", batch=True),
            lambda b: b.begin_exchange_boundaries("k"),
            lambda b: b.read_file("k", "unused.npy"),
            lambda b: b.write_file("k", "unused.npy"),
            lambda b: b.broadcast_global("u", "k"),
            lambda b: b.reduce("u", "k", example=np.zeros(1)),
            lambda b: b.reduce("u", "total", np.zeros(1), broadcast_to="k"),
        ],
    )
    def test_refused_at_build_time(self, stage):
        b = builder()
        before = len(b._stages)
        with pytest.raises(ArchetypeError, match="'k' is a constant"):
            stage(b)
        assert len(b._stages) == before

    def test_reading_a_constant_in_a_stage_is_fine(self):
        b = builder()
        b.declare_distributed("copy", np.zeros(GRID))
        b.broadcast_global("k", "copy")  # k is the *source*
        b.build()
