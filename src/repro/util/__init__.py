"""Shared utilities: deterministic seeding, array helpers, tables.

These helpers keep the rest of the library honest about two disciplines
the paper's model demands:

* **determinism** — every source of pseudo-randomness flows through an
  explicit :class:`numpy.random.Generator` created by :func:`rng_from`,
  so that repeated runs (and repeated *interleavings*, which is what
  Theorem 1 quantifies over) see identical data;
* **bitwise comparison** — refinement checks compare program versions
  for *exact* equality (:func:`bitwise_equal_arrays`), because the
  paper's correctness claim for the near-field computation is identity
  of results, not closeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "rng_from",
    "bitwise_equal_arrays",
    "max_abs_diff",
    "max_rel_diff",
    "deep_copy_value",
    "is_constant",
    "copy_unless_constant",
    "is_array_like",
    "payload_nbytes",
    "format_table",
    "Table",
    "product",
]


def rng_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` (a fixed default seed — *not* entropy — so that library
    behaviour is reproducible even when the caller does not care).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = 0xA9C4
    return np.random.default_rng(seed)


def bitwise_equal_arrays(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` and ``b`` have identical shape, dtype and *bits*.

    NaNs compare equal to identically-placed NaNs (we compare the
    underlying bytes, not IEEE values): two program versions that both
    produced a NaN at the same place from the same operations are, for
    refinement purposes, in agreement.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Maximum absolute elementwise difference between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def max_rel_diff(a: np.ndarray, b: np.ndarray, floor: float = 1e-300) -> float:
    """Maximum relative elementwise difference, guarded against zeros."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def deep_copy_value(value: Any) -> Any:
    """Copy a store value so no aliasing can leak between address spaces.

    NumPy arrays are copied; immutable scalars are returned as-is; lists,
    tuples and dicts are copied recursively.  Processes in the paper's
    model share *nothing* but channels, so system construction copies all
    initial *variables* through this function (a constant —
    :func:`is_constant` — cannot be written and is shared instead).
    """
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, dict):
        return {k: deep_copy_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [deep_copy_value(v) for v in value]
    if isinstance(value, tuple):
        return tuple(deep_copy_value(v) for v in value)
    return value


def is_constant(value: Any) -> bool:
    """True iff ``value`` is a *constant* of the paper's section 4.4
    step 1: an array nobody can assign again.

    The read-only flag is the whole declaration — there is no separate
    marker anywhere.  Every layer that would copy an initial-store value
    (``ProcessSpec.fresh_store``, the mesh skeleton's initial stores, the
    shared-store arena) asks this one predicate and shares a constant by
    reference instead: Theorem 1 forbids shared *variables*, and a value
    NumPy refuses to write is not one.  The flag is taken at its word: a
    read-only *view* of memory somebody still writes through another
    array is the caller's lie, not a constant.
    """
    return isinstance(value, np.ndarray) and not value.flags.writeable


def copy_unless_constant(value: Any) -> Any:
    """One address space's own instance of an initial-store value:
    :func:`deep_copy_value` of a variable, a constant itself."""
    return value if is_constant(value) else deep_copy_value(value)


def is_array_like(value) -> bool:
    """Duck-typed nd-array test shared by stores and kernels.

    True for any object exposing ``shape``, ``dtype`` and item access —
    NumPy arrays, CuPy arrays, and compatible third-party tensors —
    without importing any backend to ask.  Scalars (including NumPy
    0-d scalars, which have ``shape == ()`` but no ``__getitem__`` use
    we rely on) with a ``shape`` attribute still count; stores treat
    ``shape == ()`` values as whole-replacement scalars anyway.
    """
    return (
        hasattr(value, "shape")
        and hasattr(value, "dtype")
        and hasattr(value, "__getitem__")
    )


def payload_nbytes(value: Any) -> int:
    """Deterministic wire-size estimate of a message payload, in bytes.

    NumPy arrays count their buffer; numeric scalars count 8; strings
    and bytes count their encoded length; containers sum their items
    (dict keys are framing, not payload).  Used by channels to keep
    per-channel byte statistics that the performance model's byte
    counts are validated against.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bool, np.bool_)):
        return 1
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, bytes):
        return len(value)
    if value is None:
        return 0
    if isinstance(value, dict):
        return sum(payload_nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(payload_nbytes(v) for v in value)
    # dataclass-ish objects (e.g. TaggedMessage): count public fields.
    if hasattr(value, "__dataclass_fields__"):
        return sum(
            payload_nbytes(getattr(value, name))
            for name in value.__dataclass_fields__
        )
    return 8  # opaque: count as one word


def product(values) -> int:
    """Integer product of an iterable (empty product is 1)."""
    out = 1
    for v in values:
        out *= int(v)
    return out


def format_table(
    headers: list[str],
    rows: list[list[Any]],
    title: str | None = None,
) -> str:
    """Render a simple fixed-width text table (used by experiment reports)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class Table:
    """A table's data: raw row values, each column printed through its
    ``str.format`` spec (``"{}"`` for every column by default)."""

    headers: list[str]
    rows: list[list[Any]]
    formats: list[str] | None = None
    title: str | None = None

    def cells(self) -> list[list[str]]:
        """The rows as printed, one string per cell."""
        formats = self.formats or ["{}"] * len(self.headers)
        return [[f.format(v) for f, v in zip(formats, row)] for row in self.rows]

    def render(self) -> str:
        return format_table(self.headers, self.cells(), title=self.title)
