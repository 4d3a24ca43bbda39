"""Split data-exchange stages: the overlap refinement (paper §3.3 + §5).

A :class:`~repro.refinement.dataexchange.DataExchange` executes as one
atomic stage: read every right-hand side from the pre-state, then
perform every write.  The classic mesh-archetype optimization —
overlapping ghost exchange with interior compute — needs the two halves
*separated* so local computation can run between them:

* :class:`ExchangeBegin` — read the pre-state and (in the parallel
  version) launch every send;
* :class:`ExchangeEnd` — perform every write (in the parallel version:
  block on the receives, at the point of first use).

Why this is still a refinement: the channels have infinite slack, so
moving a send *earlier* and a receive *later* removes waiting edges
from the process network and adds none.  Every execution of the split
program is an execution the unsplit program could have taken under some
fair interleaving, and Theorem 1 says all of those reach the same final
state — determinacy carries over unchanged.  The only new obligation
is the caller's: the local blocks placed between begin and end must not
touch the data the exchange reads or writes (for ghost exchange: the
interior never reads the shell's ghost cells), which the mesh archetype
discharges by construction via region splitting.

Both halves share one ``DataExchange`` (the ``op``), so validation,
metrics, and channel wiring see exactly one operation per split pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import RefinementError
from repro.refinement.dataexchange import Assignment, DataExchange
from repro.refinement.store import AddressSpace

__all__ = ["ExchangeBegin", "ExchangeEnd", "split_exchange"]


@dataclass
class ExchangeBegin:
    """First half of a split exchange: pre-state reads (and sends)."""

    op: DataExchange
    name: str = ""
    #: values staged by the most recent simulated ``apply``; consumed by
    #: the matching :class:`ExchangeEnd`.  Sequential execution runs
    #: begin strictly before end, so one slot suffices.
    _staged: list[tuple[Assignment, Any]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"send:{self.op.name}"

    def apply(self, stores: Sequence[AddressSpace]) -> None:
        """Simulated semantics: stage every read against the pre-state."""
        staged: list[tuple[Assignment, Any]] = []
        for a in self.op.assignments:
            value = stores[a.src.proc].read_region(a.src.var, a.src.region)
            staged.append((a, value))
        self._staged = staged


@dataclass
class ExchangeEnd:
    """Second half of a split exchange: the writes (and receives)."""

    begin: ExchangeBegin
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"recv:{self.op.name}"

    @property
    def op(self) -> DataExchange:
        return self.begin.op

    def apply(self, stores: Sequence[AddressSpace]) -> None:
        """Simulated semantics: perform the writes staged at begin."""
        staged = self.begin._staged
        if staged is None:
            raise RefinementError(
                f"exchange end {self.name!r} ran before its begin stage; "
                "the split pair is out of order"
            )
        self.begin._staged = None
        for a, value in staged:
            stores[a.dst.proc].write_region(a.dst.var, a.dst.region, value)


def split_exchange(
    op: DataExchange, name: str = ""
) -> tuple[ExchangeBegin, ExchangeEnd]:
    """Make a begin/end stage pair sharing ``op``.

    The caller appends the begin, then any local blocks that avoid the
    exchanged regions, then the end.
    """
    label = name or op.name
    begin = ExchangeBegin(op, name=f"send:{label}")
    return begin, ExchangeEnd(begin, name=f"recv:{label}")
