"""Divide-and-conquer archetype tests (the third archetype)."""

import numpy as np
import pytest

from repro.archetypes import get_archetype
from repro.archetypes.divide_conquer import (
    DivideConquerBuilder,
    sequential_divide_conquer,
)
from repro.errors import ArchetypeError
from repro.numerics import wide_dynamic_range_values
from repro.runtime import CooperativeEngine, RandomPolicy, ThreadedEngine
from repro.theory import check_determinacy
from repro.util import bitwise_equal_arrays

# --- instances -------------------------------------------------------------

SORT = dict(
    solve=lambda x: np.sort(x),
    merge=lambda a, b: np.sort(np.concatenate([a, b])),
)


def _pairwise(x: np.ndarray) -> np.float64:
    """Balanced pairwise sum — the same binary tree the D&C merge uses,
    continued inside the leaf, so the *total* evaluation tree does not
    depend on where the process-level recursion stops."""
    if len(x) == 1:
        return np.float64(x[0])
    mid = len(x) // 2
    return _pairwise(x[:mid]) + _pairwise(x[mid:])


SUM = dict(
    solve=lambda x: np.array([_pairwise(x)]),
    merge=lambda a, b: a + b,
)
MAX = dict(
    solve=lambda x: np.array([x.max()]),
    merge=lambda a, b: np.maximum(a, b),
)


def make_problem(n=32, seed=0):
    return np.random.default_rng(seed).normal(size=n)


class TestRegistration:
    def test_registered(self):
        archetype = get_archetype("divide-conquer")
        kinds = {op.name: op.kind for op in archetype.operations}
        assert kinds["fork"] == "exchange"
        assert kinds["merge"] == "local"


class TestValidation:
    def test_nprocs_power_of_two(self):
        with pytest.raises(ArchetypeError, match="power of two"):
            DivideConquerBuilder(make_problem(12), **SORT, nprocs=3)

    def test_divisibility(self):
        with pytest.raises(ArchetypeError, match="not divisible"):
            DivideConquerBuilder(make_problem(10), **SORT, nprocs=4)

    def test_problem_shape(self):
        with pytest.raises(ArchetypeError, match="1-D"):
            DivideConquerBuilder(np.zeros((4, 4)), **SORT, nprocs=2)

    def test_program_validates(self):
        builder = DivideConquerBuilder(make_problem(16), **SORT, nprocs=4)
        builder.build().validate()


class TestSequentialRecursion:
    def test_sort_reference(self):
        x = make_problem(16)
        out = sequential_divide_conquer(x, leaf_size=4, **SORT)
        np.testing.assert_array_equal(out, np.sort(x))

    def test_sum_reference_matches_tree_order(self):
        x = np.array([1e16, 1.0, 1.0, -1e16])
        out = sequential_divide_conquer(x, leaf_size=1, **SUM)
        # tree order: (1e16 + 1) + (1 - 1e16) = 1e16 + -(1e16 - 1) = ...
        expected = (np.float64(1e16) + 1.0) + (1.0 + np.float64(-1e16))
        assert out[0] == expected


class TestParallelEquivalence:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    @pytest.mark.parametrize("case", ["SORT", "SUM", "MAX"])
    def test_simulated_matches_sequential(self, nprocs, case):
        fns = {"SORT": SORT, "SUM": SUM, "MAX": MAX}[case]
        builder = DivideConquerBuilder(make_problem(32), **fns, nprocs=nprocs)
        assert bitwise_equal_arrays(
            builder.run_simulated(), builder.sequential_reference()
        )

    def test_parallel_matches_simulated(self):
        builder = DivideConquerBuilder(make_problem(32), **SORT, nprocs=4)
        sim = builder.run_simulated()
        result = ThreadedEngine().run(builder.to_parallel())
        assert bitwise_equal_arrays(result.stores[0]["up0"], sim)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_schedules(self, seed):
        builder = DivideConquerBuilder(make_problem(16), **SUM, nprocs=4)
        sim = builder.run_simulated()
        result = CooperativeEngine(RandomPolicy(seed=seed)).run(
            builder.to_parallel()
        )
        assert bitwise_equal_arrays(result.stores[0]["up0"], sim)

    def test_determinacy(self):
        builder = DivideConquerBuilder(make_problem(16), **MAX, nprocs=4)
        report = check_determinacy(
            builder.to_parallel, n_random=6, threaded_runs=2
        )
        assert report.determinate, report.summary()


class TestReproducibilityAdvantage:
    """The archetype-level point: a D&C reduction keeps the sequential
    recursion's combining tree, so parallelization cannot reorder it —
    the pitfall that bit the paper's far field simply cannot occur."""

    def test_wide_range_sum_bitwise_reproducible_across_p(self):
        x = wide_dynamic_range_values(64, orders=14)
        results = {}
        for nprocs in (1, 2, 4, 8):
            builder = DivideConquerBuilder(x, **SUM, nprocs=nprocs)
            results[nprocs] = builder.run_simulated()[0]
            # every P matches the sequential recursion bit for bit
            assert results[nprocs] == builder.sequential_reference()[0]
        assert len(set(results.values())) == 1

    def test_contrast_with_flat_partitioned_sum(self):
        # The flat (mesh-style) partitioned sum of the same data is NOT
        # reproducible across partition counts.
        from repro.numerics import partitioned_sum

        x = wide_dynamic_range_values(64, orders=14)
        flat = {p: partitioned_sum(x, p) for p in (1, 2, 4, 8)}
        assert len(set(flat.values())) > 1


class TestShapeInference:
    def test_sum_result_shapes(self):
        builder = DivideConquerBuilder(make_problem(32), **SUM, nprocs=4)
        stores = builder.initial_stores()
        assert stores[0]["up0"].shape == (1,)
        assert stores[0]["up2"].shape == (1,)

    def test_sort_result_shapes_double_up_the_tree(self):
        builder = DivideConquerBuilder(make_problem(32), **SORT, nprocs=4)
        stores = builder.initial_stores()
        assert stores[0]["up2"].shape == (8,)
        assert stores[0]["up1"].shape == (16,)
        assert stores[0]["up0"].shape == (32,)

    def test_inactive_ranks_lack_high_levels(self):
        builder = DivideConquerBuilder(make_problem(32), **SORT, nprocs=4)
        stores = builder.initial_stores()
        assert "down0" not in stores[1]
        assert "up0" not in stores[3]
        assert "down2" in stores[3]
