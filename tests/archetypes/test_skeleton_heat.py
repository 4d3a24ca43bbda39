"""End-to-end mesh-archetype test: 2-D heat diffusion.

The canonical mesh-archetype shape: distribute, iterate
(boundary-exchange + stencil sweep), reduce, collect.  Verified three
ways, per the methodology:

* the *simulated-parallel* program's collected field is **bitwise
  identical** to a sequential global-array reference (the elementwise
  stencil performs identical FP operations per point regardless of the
  partition);
* the *message-passing* program (mechanical transform, both engines,
  random schedules) is **bitwise identical** to the simulated program —
  Theorem 1 in action;
* the reduction result matches the rank-order fold exactly, and the
  sequential global sum only approximately (the associativity gap).
"""

import re

import numpy as np
import pytest

from repro.archetypes.mesh import BlockDecomposition, MeshProgramBuilder
from repro.errors import ArchetypeError
from repro.runtime import CooperativeEngine, RandomPolicy, ThreadedEngine
from repro.theory import check_determinacy
from repro.util import bitwise_equal_arrays

ALPHA = 0.1
GRID = (12, 10)


def sequential_heat(field: np.ndarray, steps: int) -> tuple[np.ndarray, float]:
    """Reference: global ghosted array, zero (Dirichlet) boundary ring."""
    g = np.zeros((field.shape[0] + 2, field.shape[1] + 2))
    g[1:-1, 1:-1] = field
    for _ in range(steps):
        u = g
        lap = (
            u[:-2, 1:-1]
            + u[2:, 1:-1]
            + u[1:-1, :-2]
            + u[1:-1, 2:]
            - 4.0 * u[1:-1, 1:-1]
        )
        u[1:-1, 1:-1] = u[1:-1, 1:-1] + ALPHA * lap
    return g[1:-1, 1:-1].copy(), float(np.sum(g[1:-1, 1:-1]))


def heat_update(store, rank):
    u = store["u"]
    lap = (
        u[:-2, 1:-1]
        + u[2:, 1:-1]
        + u[1:-1, :-2]
        + u[1:-1, 2:]
        - 4.0 * u[1:-1, 1:-1]
    )
    u[1:-1, 1:-1] = u[1:-1, 1:-1] + ALPHA * lap


def build_heat(pshape, steps, field):
    d = BlockDecomposition(GRID, pshape, ghost=1)
    b = MeshProgramBuilder(d, use_host=True, name="heat2d")
    b.declare_distributed("u", field)
    b.declare_grid_only("partial", lambda r: np.zeros(1))
    b.distribute("u")
    for _ in range(steps):
        b.exchange_boundaries("u")
        b.grid_spmd(heat_update, name="sweep")

    def local_sum(store, rank, _d=d):
        store["partial"][0] = np.sum(store["u"][_d.interior_slices(rank)])

    b.grid_spmd(local_sum, name="partial")
    b.reduce("partial", "heat_total", example=np.zeros(1))
    b.collect("u")
    return d, b


FIELD = np.random.default_rng(11).normal(size=GRID) ** 2


class TestSimulatedVsSequential:
    @pytest.mark.parametrize("pshape", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_field_bitwise_identical(self, pshape):
        d, b = build_heat(pshape, steps=5, field=FIELD)
        stores = b.run_simulated()
        expected, _ = sequential_heat(FIELD.copy(), 5)
        assert bitwise_equal_arrays(stores[b.host]["u"], expected)

    def test_reduction_close_but_reordered(self):
        d, b = build_heat((2, 2), steps=3, field=FIELD)
        stores = b.run_simulated()
        _, seq_total = sequential_heat(FIELD.copy(), 3)
        par_total = float(stores[b.host]["heat_total"][0])
        assert np.isclose(par_total, seq_total, rtol=1e-12)
        # Exact equality is NOT guaranteed (different summation order);
        # we don't assert inequality either — only the reproducible
        # rank-order value below.

    def test_reduction_equals_rank_order_fold(self):
        d, b = build_heat((2, 2), steps=3, field=FIELD)
        stores = b.run_simulated()
        partials = []
        for r in range(d.nprocs):
            partials.append(float(stores[r]["partial"][0]))
        acc = np.float64(partials[0])
        for p in partials[1:]:
            acc = acc + np.float64(p)
        assert float(stores[b.host]["heat_total"][0]) == float(acc)


class TestParallelVsSimulated:
    def test_threaded_bitwise_identical(self):
        d, b = build_heat((2, 2), steps=4, field=FIELD)
        sim = b.run_simulated()
        result = ThreadedEngine().run(b.to_parallel())
        for rank in range(b.nprocs):
            for var in sim[rank].keys():
                assert bitwise_equal_arrays(
                    np.asarray(result.stores[rank][var]),
                    np.asarray(sim[rank][var]),
                ), f"P{rank}.{var}"

    @pytest.mark.parametrize("seed", range(3))
    def test_random_schedules_bitwise_identical(self, seed):
        d, b = build_heat((2, 2), steps=2, field=FIELD)
        sim = b.run_simulated()
        result = CooperativeEngine(RandomPolicy(seed=seed)).run(b.to_parallel())
        assert bitwise_equal_arrays(
            np.asarray(result.stores[b.host]["u"]),
            np.asarray(sim[b.host]["u"]),
        )
        assert bitwise_equal_arrays(
            np.asarray(result.stores[b.host]["heat_total"]),
            np.asarray(sim[b.host]["heat_total"]),
        )

    def test_determinacy_of_transformed_heat(self):
        d, b = build_heat((2, 1), steps=2, field=FIELD)

        report = check_determinacy(b.to_parallel, n_random=5, threaded_runs=2)
        assert report.determinate, report.summary()


class TestBuilderValidation:
    def test_exchange_requires_distributed(self):
        from repro.errors import ArchetypeError

        d = BlockDecomposition(GRID, (2, 2), ghost=1)
        b = MeshProgramBuilder(d)
        b.declare_duplicated("g", 1.0)
        with pytest.raises(ArchetypeError, match="needs distributed"):
            b.exchange_boundaries("g")

    def test_undeclared_variable(self):
        from repro.errors import ArchetypeError

        d = BlockDecomposition(GRID, (2, 2), ghost=1)
        b = MeshProgramBuilder(d)
        with pytest.raises(ArchetypeError, match="not declared"):
            b.exchange_boundaries("u")

    def test_double_declare(self):
        from repro.errors import ArchetypeError

        d = BlockDecomposition(GRID, (2, 2), ghost=1)
        b = MeshProgramBuilder(d)
        b.declare_duplicated("g", 1.0)
        with pytest.raises(ArchetypeError, match="twice"):
            b.declare_duplicated("g", 2.0)

    def test_no_host_blocks_redistribution(self):
        from repro.errors import ArchetypeError

        d = BlockDecomposition(GRID, (2, 2), ghost=1)
        b = MeshProgramBuilder(d, use_host=False)
        b.declare_distributed("u")
        with pytest.raises(ArchetypeError, match="host"):
            b.distribute("u")

    def test_reduce_without_host_uses_rank0(self):
        d = BlockDecomposition(GRID, (2, 2), ghost=1)
        b = MeshProgramBuilder(d, use_host=False)
        b.declare_distributed("u", FIELD)
        b.declare_grid_only("partial", lambda r: np.zeros(1))

        def local_sum(store, rank, _d=d):
            store["partial"][0] = np.sum(store["u"][_d.interior_slices(rank)])

        b.grid_spmd(local_sum)
        b.reduce("partial", "total", example=np.zeros(1), broadcast_to="total_all")
        stores = b.run_simulated()
        expected = sum(float(stores[r]["partial"][0]) for r in range(4))
        for r in range(4):
            assert np.isclose(float(stores[r]["total_all"][0]), expected)

    def test_initial_stores_shapes(self):
        d, b = build_heat((2, 2), steps=1, field=FIELD)
        stores = b.initial_stores()
        assert len(stores) == 5
        assert stores[0]["u"].shape == d.local_shape(0)
        assert stores[b.host]["u"].shape == GRID

    def test_build_program_is_valid(self):
        d, b = build_heat((3, 2), steps=2, field=FIELD)
        prog = b.build()
        prog.validate()
        assert prog.nprocs == 7


NO_HOST = "no host process in this layout"
NO_HOST_FOR_REDISTRIBUTION = (
    "this layout has no host process; redistribution stages need one "
    "(use use_host=True)"
)


class TestClassificationRefusals:
    """Section 4.4 steps 1-2 are the builder's declarations: each way a
    classification cannot hold is refused, with its message, while the
    program is being written.  Every case starts from a distributed
    ``u`` and a duplicated ``g``."""

    @pytest.mark.parametrize(
        "use_host, write, message",
        [
            pytest.param(
                True,
                lambda b: b.declare_grid_only("u", 0.0),
                "variable 'u' declared twice",
                id="declared-twice",
            ),
            pytest.param(
                False,
                lambda b: b.declare_host_only("io", 0.0),
                NO_HOST,
                id="declare_host_only-without-host",
            ),
            pytest.param(
                False,
                lambda b: b.host_block(lambda store: None),
                NO_HOST,
                id="host_block-without-host",
            ),
            pytest.param(
                False,
                lambda b: b.distribute("u"),
                NO_HOST_FOR_REDISTRIBUTION,
                id="distribute-without-host",
            ),
            pytest.param(
                False,
                lambda b: b.collect("u"),
                NO_HOST_FOR_REDISTRIBUTION,
                id="collect-without-host",
            ),
            pytest.param(
                True,
                lambda b: b.declare_distributed("v", np.zeros((3, 3))),
                "'v': global init shape (3, 3) != grid (12, 10)",
                id="distributed-global-of-wrong-shape",
            ),
            pytest.param(
                True,
                lambda b: b.exchange_boundaries("g"),
                "variable 'g' is duplicated, stage needs distributed",
                id="exchange-on-duplicated",
            ),
        ],
    )
    def test_refused(self, use_host, write, message):
        d = BlockDecomposition(GRID, (2, 2), ghost=1)
        b = MeshProgramBuilder(d, use_host=use_host)
        b.declare_distributed("u").declare_duplicated("g", 1.0)
        with pytest.raises(ArchetypeError, match=f"^{re.escape(message)}$"):
            write(b)
