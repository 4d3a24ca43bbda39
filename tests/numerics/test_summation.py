"""Summation algorithms and reordering analysis, incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archetypes.mesh.reduction import neumaier_fold
from repro.numerics import (
    dynamic_range,
    exact_sum,
    kahan_sum,
    naive_sum,
    partitioned_kahan_sum,
    partitioned_sum,
    reordering_report,
    wide_dynamic_range_values,
)

floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestBasicAgreement:
    @given(st.lists(floats, min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_all_methods_close_to_exact(self, xs):
        exact = exact_sum(xs)
        scale = max(1.0, float(np.sum(np.abs(xs)))) if xs else 1.0
        for fn in (naive_sum, kahan_sum):
            assert abs(fn(xs) - exact) <= 1e-9 * scale

    def test_empty_and_singleton(self):
        for fn in (naive_sum, kahan_sum):
            assert fn([]) == 0.0
            assert fn([3.5]) == 3.5

    @given(st.lists(floats, min_size=1, max_size=100), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_partitioned_is_close(self, xs, parts):
        exact = exact_sum(xs)
        scale = max(1.0, float(np.sum(np.abs(xs))))
        assert abs(partitioned_sum(xs, parts) - exact) <= 1e-9 * scale

    def test_partitioned_one_equals_naive(self):
        xs = wide_dynamic_range_values(500, orders=10)
        assert partitioned_sum(xs, 1) == naive_sum(xs)

    def test_parts_validation(self):
        with pytest.raises(ValueError):
            partitioned_sum([1.0], 0)


class TestCompensation:
    def test_kahan_beats_naive_on_hard_sum(self):
        # Classic: big value, then many tiny ones.
        xs = np.array([1e16] + [1.0] * 10_000)
        exact = exact_sum(xs)
        assert abs(kahan_sum(xs) - exact) <= abs(naive_sum(xs) - exact)
        assert kahan_sum(xs) == exact

    def test_neumaier_handles_large_late_summand(self):
        xs = np.array([1.0, 1e100, 1.0, -1e100])
        assert neumaier_fold(xs) == 2.0
        assert naive_sum(xs) == 0.0  # plain order loses the 2

    def test_partitioned_kahan_reproducible_across_parts(self):
        xs = wide_dynamic_range_values(4096, orders=14)
        kahan = [partitioned_kahan_sum(xs, p) for p in (1, 2, 3, 4, 8, 16)]
        plain = [partitioned_sum(xs, p) for p in (1, 2, 3, 4, 8, 16)]
        ulp = np.finfo(np.float64).eps * abs(exact_sum(xs))
        # Compensated partials agree to a few ulps across partitionings,
        # and tighter than the plain reordered sums.
        assert max(kahan) - min(kahan) <= 4 * ulp
        assert max(kahan) - min(kahan) < max(plain) - min(plain)


class TestReorderingPhenomenon:
    """The E2 phenomenon in isolation."""

    def test_reordering_changes_wide_range_sums(self):
        xs = wide_dynamic_range_values(4096, orders=14)
        results = {partitioned_sum(xs, p) for p in (1, 2, 4, 8, 16)}
        assert len(results) > 1  # order matters

    def test_narrow_range_sums_are_robust(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(1.0, 2.0, size=4096)  # same magnitude, same sign
        report = reordering_report(xs)
        assert report.max_reordering_discrepancy() < 1e-12

    def test_discrepancy_grows_with_dynamic_range(self):
        narrow = reordering_report(wide_dynamic_range_values(4096, orders=2))
        wide = reordering_report(wide_dynamic_range_values(4096, orders=16))
        assert (
            wide.max_reordering_discrepancy()
            > narrow.max_reordering_discrepancy()
        )

    def test_kahan_fixes_reordering(self):
        xs = wide_dynamic_range_values(4096, orders=14)
        report = reordering_report(xs)
        assert report.max_kahan_discrepancy() <= 1e-15
        assert report.max_reordering_discrepancy() > report.max_kahan_discrepancy()

    def test_report_describe(self):
        report = reordering_report(wide_dynamic_range_values(256, orders=10))
        text = report.describe()
        assert "sequential order" in text and "compensated" in text


class TestDynamicRange:
    def test_orders_of_magnitude(self):
        info = dynamic_range([1e-6, 1.0, 1e6])
        assert info.orders_of_magnitude == pytest.approx(12.0)
        assert info.smallest == 1e-6 and info.largest == 1e6

    def test_condition_number_of_cancelling_sum(self):
        info = dynamic_range([1e8, -1e8, 1.0])
        assert info.condition == pytest.approx(2e8 + 1)

    def test_empty_and_zero(self):
        info = dynamic_range([0.0, 0.0])
        assert info.orders_of_magnitude == 0.0

    def test_synthetic_values_span_requested_orders(self):
        xs = wide_dynamic_range_values(8192, orders=12.0, seed=1)
        info = dynamic_range(xs)
        assert info.orders_of_magnitude > 10.0
