"""Simulated-parallel programs and their mechanical parallelization.

The central integration property (Theorem 1 applied through the
transform): for a well-formed simulated-parallel program, sequential
execution, cooperative execution of the transformed system under *any*
schedule, and free-running threaded execution all produce bitwise
identical stores.
"""

import numpy as np
import pytest

from repro.errors import RefinementError
from repro.refinement import (
    DataExchange,
    LocalBlock,
    SimulatedParallelProgram,
    TransformationMetrics,
    VarRef,
    compare_store_lists,
    make_stores,
    to_parallel_system,
)
from repro.runtime import (
    CooperativeEngine,
    RandomPolicy,
    SendsFirstPolicy,
    ThreadedEngine,
)
from repro.theory import check_determinacy


def ring_shift_program(nprocs=4, width=8, steps=3):
    """Each process holds a block of a ring and repeatedly shifts its
    rightmost value to its right neighbour's ghost cell, then adds it in.

    Structure: alternating local blocks and exchanges — a miniature of
    the mesh archetype's compute/boundary-exchange cycle.
    """
    prog = SimulatedParallelProgram(nprocs, name="ring-shift")

    def compute(store, rank):
        u = store["u"]
        u[1:] = u[1:] + 0.5 * u[:-1]

    for step in range(steps):
        exch = DataExchange(name=f"shift{step}")
        for r in range(nprocs):
            left = (r - 1) % nprocs
            exch.assign(
                VarRef(r, "ghost"),
                VarRef(left, "u", (slice(width - 1, width),)),
            )
        prog.exchange(exch)

        def absorb(store, rank):
            store["u"][0] = store["u"][0] + store["ghost"][0]

        prog.spmd(absorb, name=f"absorb{step}")
        prog.spmd(compute, name=f"compute{step}")
    return prog


def initial_for(nprocs=4, width=8):
    rng = np.random.default_rng(42)
    return [
        {"u": rng.normal(size=width), "ghost": np.zeros(1)}
        for _ in range(nprocs)
    ]


class TestProgramStructure:
    def test_builder_and_describe(self):
        prog = ring_shift_program()
        assert len(prog.exchanges()) == 3
        assert len(prog.local_blocks()) == 6
        text = prog.describe()
        assert "ring-shift" in text and "exchange" in text

    def test_run_requires_matching_store_count(self):
        prog = ring_shift_program(nprocs=4)
        with pytest.raises(RefinementError, match="needs 4 stores"):
            prog.run(stores=make_stores(2))

    def test_validate_passes_for_well_formed(self):
        prog = ring_shift_program()
        stores = [
            __import__("repro.refinement", fromlist=["AddressSpace"]).AddressSpace(s)
            for s in initial_for()
        ]
        prog.validate(stores=stores)


class TestSequentialExecution:
    def test_run_mutates_stores_deterministically(self):
        from repro.refinement import AddressSpace

        init = initial_for()
        s1 = [AddressSpace(dict(d), owner=i) for i, d in enumerate(initial_for())]
        s2 = [AddressSpace(dict(d), owner=i) for i, d in enumerate(initial_for())]
        ring_shift_program().run(stores=s1)
        ring_shift_program().run(stores=s2)
        report = compare_store_lists(
            [s.raw() for s in s1], [s.raw() for s in s2]
        )
        assert report.bitwise_equal, report.describe()
        # and it actually changed something
        changed = compare_store_lists([s.raw() for s in s1], init)
        assert not changed.bitwise_equal


class TestParallelEquivalence:
    def simulated_result(self):
        from repro.refinement import AddressSpace

        stores = [
            AddressSpace(dict(d), owner=i)
            for i, d in enumerate(initial_for())
        ]
        ring_shift_program().run(stores=stores)
        return [s.snapshot() for s in stores]

    def test_threaded_matches_sequential(self):
        system = to_parallel_system(
            ring_shift_program(), initial_stores=initial_for()
        )
        result = ThreadedEngine().run(system)
        report = compare_store_lists(result.stores, self.simulated_result())
        assert report.bitwise_equal, report.describe()

    @pytest.mark.parametrize("seed", range(6))
    def test_any_cooperative_schedule_matches_sequential(self, seed):
        system = to_parallel_system(
            ring_shift_program(), initial_stores=initial_for()
        )
        result = CooperativeEngine(RandomPolicy(seed=seed)).run(system)
        report = compare_store_lists(result.stores, self.simulated_result())
        assert report.bitwise_equal, report.describe()

    def test_sends_first_schedule_matches(self):
        system = to_parallel_system(
            ring_shift_program(), initial_stores=initial_for()
        )
        result = CooperativeEngine(SendsFirstPolicy()).run(system)
        report = compare_store_lists(result.stores, self.simulated_result())
        assert report.bitwise_equal

    def test_transformed_system_is_determinate(self):
        def factory():
            return to_parallel_system(
                ring_shift_program(), initial_stores=initial_for()
            )

        report = check_determinacy(factory, n_random=6, threaded_runs=2)
        assert report.determinate, report.summary()

    def test_channel_wiring_is_minimal(self):
        system = to_parallel_system(
            ring_shift_program(nprocs=4), initial_stores=initial_for(4)
        )
        # ring: each rank sends to its right neighbour only -> 4 channels
        assert len(system.channel_specs) == 4

    def test_message_combining_one_message_per_pair_per_exchange(self):
        # Two assignments with same (src, dst) must travel as 1 message.
        prog = SimulatedParallelProgram(2, name="combined")
        exch = DataExchange(name="both")
        exch.assign(VarRef(1, "a"), VarRef(0, "a"))
        exch.assign(VarRef(1, "b"), VarRef(0, "b"))
        exch.assign(VarRef(0, "d"), VarRef(1, "c"))
        prog.exchange(exch)
        system = to_parallel_system(
            prog,
            initial_stores=[
                {"a": np.ones(1), "b": np.full(1, 2.0), "c": np.zeros(1), "d": np.zeros(1)},
                {"a": np.zeros(1), "b": np.zeros(1), "c": np.full(1, 7.0), "d": np.zeros(1)},
            ],
        )
        result = ThreadedEngine().run(system)
        assert result.channel_stats["dx_0_1"] == (1, 1)
        assert result.channel_stats["dx_1_0"] == (1, 1)
        assert result.stores[1]["a"][0] == 1.0
        assert result.stores[1]["b"][0] == 2.0
        assert result.stores[0]["d"][0] == 7.0

    def test_invalid_program_refused_by_transform(self):
        prog = SimulatedParallelProgram(2)
        bad = DataExchange(name="bad")
        bad.assign(VarRef(0, "x"), VarRef(1, "x"))
        bad.assign(VarRef(1, "y"), VarRef(0, "x"))  # reads a target
        prog.exchange(bad)
        with pytest.raises(Exception):
            to_parallel_system(prog, initial={"x": np.zeros(1), "y": np.zeros(1)})

    def test_initial_and_initial_stores_mutually_exclusive(self):
        prog = SimulatedParallelProgram(1)
        with pytest.raises(RefinementError, match="not both"):
            to_parallel_system(prog, initial={}, initial_stores=[{}])


class TestMetrics:
    def test_counts(self):
        metrics = TransformationMetrics.from_program(ring_shift_program(nprocs=4))
        assert metrics.nprocs == 4
        assert metrics.exchanges == 3
        assert metrics.local_blocks == 6
        assert metrics.assignments == 12  # 4 per exchange
        assert metrics.cross_partition_assignments == 12
        assert metrics.channels == 4  # ring
        assert "stages" in metrics.describe()
