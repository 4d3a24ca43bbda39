"""Utility-layer tests (repro.util and repro.errors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.util import (
    bitwise_equal_arrays,
    deep_copy_value,
    format_table,
    is_array_like,
    max_abs_diff,
    max_rel_diff,
    product,
    rng_from,
)


class TestRng:
    def test_none_is_deterministic(self):
        assert rng_from(None).integers(1 << 30) == rng_from(None).integers(1 << 30)

    def test_int_seed(self):
        assert rng_from(7).integers(1 << 30) == rng_from(7).integers(1 << 30)
        assert rng_from(7).integers(1 << 30) != rng_from(8).integers(1 << 30)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert rng_from(gen) is gen


class TestBitwiseEquality:
    def test_equal_arrays(self):
        a = np.arange(5.0)
        assert bitwise_equal_arrays(a, a.copy())

    def test_shape_dtype_mismatch(self):
        assert not bitwise_equal_arrays(np.zeros(3), np.zeros(4))
        assert not bitwise_equal_arrays(
            np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.float64)
        )

    def test_last_ulp_difference_detected(self):
        a = np.array([1.0])
        b = np.nextafter(a, 2.0)
        assert not bitwise_equal_arrays(a, b)

    def test_nan_equal_to_same_nan(self):
        a = np.array([np.nan, 1.0])
        assert bitwise_equal_arrays(a, a.copy())

    def test_negative_zero_differs_from_zero(self):
        assert not bitwise_equal_arrays(np.array([0.0]), np.array([-0.0]))

    def test_non_contiguous_views(self):
        base = np.arange(20.0)
        assert bitwise_equal_arrays(base[::2], base[::2].copy())

    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, xs):
        arr = np.asarray(xs)
        assert bitwise_equal_arrays(arr, arr.copy())


class TestDiffs:
    def test_max_abs(self):
        assert max_abs_diff(np.array([1.0, 2.0]), np.array([1.5, 2.0])) == 0.5

    def test_max_rel_guards_zero(self):
        assert max_rel_diff(np.zeros(3), np.zeros(3)) == 0.0

    def test_empty(self):
        assert max_abs_diff(np.zeros(0), np.zeros(0)) == 0.0


class TestDeepCopy:
    def test_array_copied(self):
        a = np.zeros(3)
        b = deep_copy_value(a)
        b[0] = 1
        assert a[0] == 0

    def test_nested_containers(self):
        value = {"a": [np.zeros(2), (np.ones(1), 5)], "b": "text"}
        clone = deep_copy_value(value)
        clone["a"][0][0] = 9
        assert value["a"][0][0] == 0
        assert clone["b"] == "text"

    def test_scalars_passthrough(self):
        assert deep_copy_value(5) == 5
        assert deep_copy_value(None) is None


class TestMisc:
    def test_product(self):
        assert product([2, 3, 4]) == 24
        assert product([]) == 1

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "-+-" in lines[2]
        assert all(len(l) == len(lines[1]) for l in lines[1:2])

    def test_is_array_like(self):
        assert is_array_like(np.zeros(3))
        # numpy scalars reach stores and must keep passing
        assert is_array_like(np.float64(3.0))
        assert not is_array_like(3.0)
        assert not is_array_like([1, 2, 3])


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ChannelError,
            errors.EmptyChannelError,
            errors.DeadlockError,
            errors.RefinementError,
            errors.DataExchangeViolation,
            errors.ArchetypeError,
            errors.DecompositionError,
            errors.FDTDError,
            errors.StabilityError,
            errors.ModelError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_data_exchange_violation_carries_rule(self):
        e = errors.DataExchangeViolation("ii", "bad")
        assert e.rule == "ii"
        assert "(ii)" in str(e)

    def test_process_failed_carries_original(self):
        inner = ValueError("x")
        e = errors.ProcessFailedError(3, inner)
        assert e.rank == 3 and e.original is inner

    def test_deadlock_carries_waiting(self):
        e = errors.DeadlockError("stuck", waiting={1: "recv on 'c'"})
        assert e.waiting == {1: "recv on 'c'"}


class TestConstants:
    def test_is_constant_is_the_read_only_flag_of_an_array(self):
        from repro.util import is_constant

        arr = np.arange(4.0)
        assert not is_constant(arr)
        arr.flags.writeable = False
        assert is_constant(arr)
        assert not is_constant(arr.copy())
        for other in (3, 2.5, "s", (1, 2), [arr], {"a": arr}, None):
            assert not is_constant(other)

    def test_copy_unless_constant(self):
        from repro.util import copy_unless_constant

        var = np.arange(4.0)
        const = np.arange(4.0)
        const.flags.writeable = False
        assert copy_unless_constant(const) is const
        copied = copy_unless_constant(var)
        assert copied is not var and (copied == var).all()
        nested = {"k": [var]}
        assert copy_unless_constant(nested)["k"][0] is not var
