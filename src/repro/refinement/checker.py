"""Refinement checking by testing (the paper's chosen discipline for
sequential-to-sequential steps).

The methodology proves the final (simulated-parallel → parallel)
transformation and *tests* the sequential-to-sequential ones.  The
tests are bitwise: the paper's correctness criterion for the near-field
computation is that versions produce *identical* results, and its
far-field finding is precisely that "close" is not "identical" when
summation order changes.  So the comparison reports here carry both a
bitwise verdict and, when that fails, the magnitude of the disagreement
— which is the observable of experiment E2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.refinement.store import AddressSpace
from repro.util import bitwise_equal_arrays, max_abs_diff, max_rel_diff

__all__ = [
    "VariableComparison",
    "ComparisonReport",
    "compare_arrays",
    "compare_stores",
    "compare_store_lists",
]


@dataclass(frozen=True)
class VariableComparison:
    """Bitwise and numeric comparison of one variable."""

    name: str
    bitwise_equal: bool
    max_abs: float
    max_rel: float
    note: str = ""

    def describe(self) -> str:
        verdict = "identical" if self.bitwise_equal else "DIFFERS"
        extra = (
            "" if self.bitwise_equal else f" (max abs {self.max_abs:.3e}, max rel {self.max_rel:.3e})"
        )
        note = f" [{self.note}]" if self.note else ""
        return f"{self.name}: {verdict}{extra}{note}"


@dataclass
class ComparisonReport:
    """Comparison of two variable stores (or two sets of outputs)."""

    variables: list[VariableComparison] = field(default_factory=list)
    missing_left: list[str] = field(default_factory=list)
    missing_right: list[str] = field(default_factory=list)

    @property
    def bitwise_equal(self) -> bool:
        return (
            not self.missing_left
            and not self.missing_right
            and all(v.bitwise_equal for v in self.variables)
        )

    @property
    def max_abs(self) -> float:
        return max((v.max_abs for v in self.variables), default=0.0)

    @property
    def max_rel(self) -> float:
        return max((v.max_rel for v in self.variables), default=0.0)

    def differing(self) -> list[VariableComparison]:
        return [v for v in self.variables if not v.bitwise_equal]

    def describe(self) -> str:
        lines = []
        verdict = "IDENTICAL" if self.bitwise_equal else "NOT identical"
        lines.append(
            f"{verdict}: {len(self.variables)} variable(s) compared, "
            f"{len(self.differing())} differ"
        )
        for v in self.variables:
            lines.append("  " + v.describe())
        for name in self.missing_left:
            lines.append(f"  {name}: missing on left")
        for name in self.missing_right:
            lines.append(f"  {name}: missing on right")
        return "\n".join(lines)


def compare_arrays(name: str, a: Any, b: Any) -> VariableComparison:
    """Compare two values (arrays or scalars) bitwise and numerically."""
    arr_a = np.asarray(a)
    arr_b = np.asarray(b)
    if arr_a.shape != arr_b.shape:
        return VariableComparison(
            name,
            bitwise_equal=False,
            max_abs=float("inf"),
            max_rel=float("inf"),
            note=f"shape {arr_a.shape} vs {arr_b.shape}",
        )
    bitwise = bitwise_equal_arrays(arr_a, arr_b)
    if bitwise:
        return VariableComparison(name, True, 0.0, 0.0)
    if arr_a.dtype.kind in "fc" or arr_b.dtype.kind in "fc":
        return VariableComparison(
            name, False, max_abs_diff(arr_a, arr_b), max_rel_diff(arr_a, arr_b)
        )
    return VariableComparison(
        name, False, float("inf"), float("inf"), note="non-float mismatch"
    )


def compare_stores(
    left: Mapping[str, Any] | AddressSpace,
    right: Mapping[str, Any] | AddressSpace,
    only: Sequence[str] | None = None,
) -> ComparisonReport:
    """Variable-by-variable comparison of two stores.

    ``only`` restricts the comparison to the named variables (e.g. the
    program's declared outputs, ignoring scratch state).
    """
    lmap = left.raw() if isinstance(left, AddressSpace) else dict(left)
    rmap = right.raw() if isinstance(right, AddressSpace) else dict(right)
    names = list(only) if only is not None else sorted(set(lmap) | set(rmap))
    report = ComparisonReport()
    for name in names:
        if name not in lmap:
            report.missing_left.append(name)
        elif name not in rmap:
            report.missing_right.append(name)
        else:
            report.variables.append(compare_arrays(name, lmap[name], rmap[name]))
    return report


def compare_store_lists(
    left: Sequence[Mapping[str, Any] | AddressSpace],
    right: Sequence[Mapping[str, Any] | AddressSpace],
    only: Sequence[str] | None = None,
) -> ComparisonReport:
    """Compare per-process store lists rank by rank (variable names are
    prefixed ``P<rank>.``)."""
    report = ComparisonReport()
    if len(left) < len(right):
        report.missing_left.append(f"<{len(left)} stores>")
        return report
    if len(right) < len(left):
        report.missing_right.append(f"<{len(right)} stores>")
        return report
    for rank, (l, r) in enumerate(zip(left, right)):
        sub = compare_stores(l, r, only=only)
        for v in sub.variables:
            report.variables.append(
                VariableComparison(
                    f"P{rank}.{v.name}",
                    v.bitwise_equal,
                    v.max_abs,
                    v.max_rel,
                    v.note,
                )
            )
        report.missing_left.extend(f"P{rank}.{n}" for n in sub.missing_left)
        report.missing_right.extend(f"P{rank}.{n}" for n in sub.missing_right)
    return report
