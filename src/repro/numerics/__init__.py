"""Floating-point summation analysis.

The paper's far-field experiment failed to reproduce sequential results
because the parallelization re-ordered a large double sum, and
"floating-point arithmetic is not truly associative"; footnote 2 adds
that the summands "ranged over many orders of magnitude, so it is not
surprising that the result of the summation was markedly affected by
the order of summation".

This package quantifies both observations (experiment E2) and supplies
the "more sophisticated strategy" the paper did not pursue —
compensated (Kahan) summation, which makes the parallel
reduction agree with the sequential sum to within one rounding of the
exact value, restoring reproducibility without fixing the order.
"""

from repro.numerics.summation import (
    exact_sum,
    kahan_sum,
    naive_sum,
    partitioned_sum,
    partitioned_kahan_sum,
)
from repro.numerics.associativity import (
    DynamicRange,
    ReorderingReport,
    dynamic_range,
    reordering_report,
    wide_dynamic_range_values,
)

__all__ = [
    "naive_sum",
    "kahan_sum",
    "partitioned_sum",
    "partitioned_kahan_sum",
    "exact_sum",
    "dynamic_range",
    "DynamicRange",
    "reordering_report",
    "ReorderingReport",
    "wide_dynamic_range_values",
]
