"""Data-exchange operations and their three restrictions (paper §2.2).

A data-exchange operation is a *set of assignment statements* between
simulated address spaces, restricted so that it corresponds exactly to
a round of message passing:

(i)   if an atomic data object is the target of an assignment, it is
      not referenced in any other assignment of the operation;
(ii)  no side of an assignment references objects of more than one
      partition (the two sides may use *different* partitions);
(iii) every simulated process is assigned at least one value.

Restriction (ii) is guaranteed by construction here: a
:class:`VarRef` names one process's variable (optionally a rectangular
sub-region of an array).  Restriction (i) is checked by
:meth:`DataExchange.validate` — exactly, once array shapes are known
(region overlap on concrete extents), conservatively otherwise.
Restriction (iii) is checked over a declared participant set; a few
archetype operations (e.g. gather-to-host) are deliberately one-sided
and declare only the receiving side as participants.

Execution (:meth:`DataExchange.apply`) is two-phase — read every
right-hand side from the pre-state, then perform every write — which is
both the natural semantics of a *set* of assignments and the exact
sequential analogue of "all sends happen before any receive".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import DataExchangeViolation
from repro.refinement.store import AddressSpace
from repro.util import is_array_like

__all__ = ["VarRef", "Assignment", "DataExchange"]

Region = tuple  # tuple of slices / ints


@dataclass(frozen=True)
class VarRef:
    """A reference to (a region of) one variable of one partition.

    ``region`` is ``None`` for the whole variable, or a tuple of
    ``slice``/``int`` objects indexing an array variable.  Slices must
    be non-negative with unit step (rectangular regions), which is all
    the archetype operations ever need and keeps overlap checking exact.
    """

    proc: int
    var: str
    region: Region | None = None

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise DataExchangeViolation(
                "ii", f"reference to negative partition {self.proc}"
            )
        if self.region is not None:
            for s in self.region:
                if isinstance(s, int):
                    continue
                if not isinstance(s, slice):
                    raise DataExchangeViolation(
                        "ii", f"region component {s!r} is not a slice or int"
                    )
                if s.step not in (None, 1):
                    raise DataExchangeViolation(
                        "ii", "only unit-step slices are supported in regions"
                    )
                for bound in (s.start, s.stop):
                    if bound is not None and bound < 0:
                        raise DataExchangeViolation(
                            "ii", "negative slice bounds are not supported"
                        )

    def describe(self) -> str:
        if self.region is None:
            return f"P{self.proc}.{self.var}"
        parts = []
        for s in self.region:
            if isinstance(s, int):
                parts.append(str(s))
            else:
                parts.append(
                    f"{'' if s.start is None else s.start}:"
                    f"{'' if s.stop is None else s.stop}"
                )
        return f"P{self.proc}.{self.var}[{','.join(parts)}]"


@dataclass(frozen=True)
class Assignment:
    """``dst := src`` between two partition references."""

    dst: VarRef
    src: VarRef

    def describe(self) -> str:
        return self.dst.describe() + " := " + self.src.describe()


# ---------------------------------------------------------------------------
# Region arithmetic
# ---------------------------------------------------------------------------


def _bounds(component, extent: int) -> tuple[int, int]:
    """Concrete [start, stop) of one region component given the extent."""
    if isinstance(component, int):
        return component, component + 1
    start = 0 if component.start is None else component.start
    stop = extent if component.stop is None else min(component.stop, extent)
    return start, stop


def regions_overlap(
    a: Region | None, b: Region | None, shape: Sequence[int] | None
) -> bool:
    """Do two regions of the same variable intersect?

    With a known ``shape`` the answer is exact for rectangular regions.
    Without one (shape ``None``) the check is conservative: ``None``
    regions overlap everything, and two explicit regions are compared
    component-wise treating open bounds as unbounded.
    """
    if a is None or b is None:
        return True
    ndim = max(len(a), len(b))
    for axis in range(ndim):
        ca = a[axis] if axis < len(a) else slice(None)
        cb = b[axis] if axis < len(b) else slice(None)
        extent = (
            shape[axis] if shape is not None and axis < len(shape) else 1 << 62
        )
        a0, a1 = _bounds(ca, extent)
        b0, b1 = _bounds(cb, extent)
        if a1 <= b0 or b1 <= a0:
            return False  # disjoint along this axis: regions disjoint
    return True


def _refs_overlap(
    x: VarRef, y: VarRef, shapes: dict[tuple[int, str], tuple[int, ...]] | None
) -> bool:
    if x.proc != y.proc or x.var != y.var:
        return False
    shape = shapes.get((x.proc, x.var)) if shapes else None
    return regions_overlap(x.region, y.region, shape)


# ---------------------------------------------------------------------------
# The operation itself
# ---------------------------------------------------------------------------


@dataclass
class DataExchange:
    """A checked set of assignments forming one data-exchange operation."""

    assignments: list[Assignment] = field(default_factory=list)
    name: str = "exchange"
    #: processes this operation claims to cover for restriction (iii);
    #: ``None`` means "all processes of the program" (checked by the
    #: program, which knows N).
    participants: frozenset[int] | None = None

    # -- construction -----------------------------------------------------------

    def assign(self, dst: VarRef, src: VarRef) -> "DataExchange":
        """Append an assignment (chainable)."""
        self.assignments.append(Assignment(dst, src))
        return self

    # -- validation --------------------------------------------------------------

    def validate(
        self,
        nprocs: int | None = None,
        stores: Sequence[AddressSpace] | None = None,
        require_all_receive: bool = True,
    ) -> None:
        """Check restrictions (i)-(iii); raise
        :class:`~repro.errors.DataExchangeViolation` on failure.

        With ``stores`` given, region overlap is exact (array shapes are
        known); otherwise open-ended regions are treated conservatively.
        ``require_all_receive=False`` skips restriction (iii) for
        deliberately one-sided operations.
        """
        shapes: dict[tuple[int, str], tuple[int, ...]] | None = None
        if stores is not None:
            shapes = {}
            for ref in self._all_refs():
                value = stores[ref.proc][ref.var]
                if is_array_like(value):
                    shapes[(ref.proc, ref.var)] = tuple(value.shape)

        # (ii) partition range.
        if nprocs is not None:
            for ref in self._all_refs():
                if ref.proc >= nprocs:
                    raise DataExchangeViolation(
                        "ii",
                        f"{self.name}: reference {ref.describe()} names "
                        f"partition {ref.proc} but there are only {nprocs}",
                    )

        # (i) no target is referenced by any other assignment.
        for i, a in enumerate(self.assignments):
            for j, b in enumerate(self.assignments):
                if i == j:
                    continue
                if _refs_overlap(a.dst, b.dst, shapes):
                    raise DataExchangeViolation(
                        "i",
                        f"{self.name}: targets {a.dst.describe()} and "
                        f"{b.dst.describe()} overlap",
                    )
                if _refs_overlap(a.dst, b.src, shapes):
                    raise DataExchangeViolation(
                        "i",
                        f"{self.name}: target {a.dst.describe()} is read "
                        f"by {b.describe()}",
                    )

        # (iii) every (participating) process receives at least one value.
        if require_all_receive and nprocs is not None:
            receivers = {a.dst.proc for a in self.assignments}
            expected = (
                set(self.participants)
                if self.participants is not None
                else set(range(nprocs))
            )
            missing = expected - receivers
            if missing:
                raise DataExchangeViolation(
                    "iii",
                    f"{self.name}: processes {sorted(missing)} are assigned "
                    "no value",
                )

    def _all_refs(self) -> Iterable[VarRef]:
        for a in self.assignments:
            yield a.dst
            yield a.src

    # -- execution ---------------------------------------------------------------

    def apply(self, stores: Sequence[AddressSpace]) -> None:
        """Execute the operation sequentially: read every right-hand side
        from the pre-state, then perform every write."""
        staged: list[tuple[Assignment, Any]] = []
        for a in self.assignments:
            value = stores[a.src.proc].read_region(a.src.var, a.src.region)
            staged.append((a, value))
        for a, value in staged:
            stores[a.dst.proc].write_region(a.dst.var, a.dst.region, value)

    # -- message-passing view (used by the transform) ---------------------------------

    def cross_partition(self) -> list[Assignment]:
        """Assignments whose source and destination partitions differ —
        the ones that become messages."""
        return [a for a in self.assignments if a.src.proc != a.dst.proc]

    def local_assignments(self, rank: int) -> list[Assignment]:
        """Assignments entirely within partition ``rank``."""
        return [
            a
            for a in self.assignments
            if a.src.proc == rank and a.dst.proc == rank
        ]

    def sends_from(self, rank: int) -> list[tuple[int, Assignment]]:
        """``(dest, assignment)`` pairs this rank must send, grouped
        caller-side by destination (stable order: assignment order)."""
        return [
            (a.dst.proc, a)
            for a in self.assignments
            if a.src.proc == rank and a.dst.proc != rank
        ]

    def recvs_to(self, rank: int) -> list[tuple[int, Assignment]]:
        """``(source, assignment)`` pairs this rank must receive."""
        return [
            (a.src.proc, a)
            for a in self.assignments
            if a.dst.proc == rank and a.src.proc != rank
        ]

    def message_pairs(self) -> set[tuple[int, int]]:
        """All (sender, receiver) pairs with at least one assignment —
        after combining, one message flows per pair."""
        return {(a.src.proc, a.dst.proc) for a in self.cross_partition()}

    def describe(self) -> str:
        lines = [f"data-exchange {self.name!r}:"]
        lines.extend("  " + a.describe() for a in self.assignments)
        return "\n".join(lines)
