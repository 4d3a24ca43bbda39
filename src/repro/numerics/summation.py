"""Summation algorithms with controlled evaluation order.

Every function here takes a 1-D array of float64 summands and returns a
float64 (except :func:`exact_sum`, the correctly-rounded reference).
The point is *order control*: :func:`partitioned_sum` reproduces exactly
what the paper's parallelization did to the far-field double sum —
contiguous per-process partial sums combined in process order — so the
sequential-vs-parallel discrepancy can be studied in isolation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "naive_sum",
    "kahan_sum",
    "partitioned_sum",
    "partitioned_kahan_sum",
    "exact_sum",
]


def _as1d(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    return arr


def exact_sum(values) -> float:
    """Correctly-rounded sum (``math.fsum``): the ground truth."""
    return math.fsum(_as1d(values).tolist())


def naive_sum(values) -> float:
    """Left-to-right recursive summation — the sequential program's
    natural order."""
    acc = np.float64(0.0)
    for v in _as1d(values):
        acc = acc + v
    return float(acc)


def kahan_sum(values) -> float:
    """Kahan compensated summation — O(eps) error independent of n
    (for sums without catastrophic intermediate cancellation)."""
    acc = np.float64(0.0)
    comp = np.float64(0.0)
    for v in _as1d(values):
        y = v - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return float(acc)


def _partition_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    base, rem = divmod(n, parts)
    bounds = []
    start = 0
    for k in range(parts):
        size = base + (1 if k < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def partitioned_sum(values, parts: int) -> float:
    """The parallel reduction's order: contiguous blocks summed
    left-to-right locally, partials combined in block (process) order.

    ``partitioned_sum(x, 1) == naive_sum(x)`` exactly; for ``parts > 1``
    the result is a pure reordering of the same additions — equal as a
    real-number sum, not necessarily as floats.
    """
    arr = _as1d(values)
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    partials = [
        naive_sum(arr[a:b]) for a, b in _partition_bounds(len(arr), parts)
    ]
    return naive_sum(partials)


def partitioned_kahan_sum(values, parts: int) -> float:
    """The 'more sophisticated strategy': compensated local sums and a
    compensated combine.  Near-exact regardless of the partitioning,
    hence reproducible across process counts."""
    arr = _as1d(values)
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    partials = [
        kahan_sum(arr[a:b]) for a, b in _partition_bounds(len(arr), parts)
    ]
    return kahan_sum(partials)
