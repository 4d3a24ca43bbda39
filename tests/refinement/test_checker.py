"""Store-list comparison: a length mismatch names only the shorter side."""

import numpy as np
import pytest

from repro.refinement import compare_store_lists


def stores(n):
    return [{"x": np.full(2, float(r))} for r in range(n)]


class TestCompareStoreLists:
    @pytest.mark.parametrize(
        "left, right, missing_left, missing_right",
        [
            (1, 2, ["<1 stores>"], []),
            (3, 2, [], ["<2 stores>"]),
        ],
    )
    def test_length_mismatch(self, left, right, missing_left, missing_right):
        report = compare_store_lists(stores(left), stores(right))
        assert report.missing_left == missing_left
        assert report.missing_right == missing_right
        assert not report.bitwise_equal
        # one line for the short side, none naming an empty variable
        text = report.describe()
        assert "\n  :" not in text
        side = "left" if left < right else "right"
        assert f"  <{min(left, right)} stores>: missing on {side}" in text
