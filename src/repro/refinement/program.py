"""Sequential simulated-parallel programs (paper §2.2, Definition 1).

A :class:`SimulatedParallelProgram` is the key intermediate artifact of
the methodology: a *sequential* program whose data is partitioned into
N simulated address spaces and whose computation is an alternating
sequence of :class:`LocalBlock` and
:class:`~repro.refinement.dataexchange.DataExchange` stages.

Running it (:meth:`SimulatedParallelProgram.run`) is ordinary sequential
execution — which is the methodology's payoff: the hard part of
parallelization is developed and debugged with sequential tools.  The
mechanical jump to a real process system is
:func:`repro.refinement.transform.to_parallel_system`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

from repro.errors import RefinementError
from repro.refinement.dataexchange import DataExchange
from repro.refinement.split import ExchangeBegin, ExchangeEnd
from repro.refinement.store import AddressSpace, make_stores

__all__ = ["LocalBlock", "SimulatedParallelProgram"]

#: A local-computation function: receives its own address space only.
LocalFn = Callable[[AddressSpace], None]


@dataclass
class LocalBlock:
    """A local-computation block: one function per simulated process.

    The i-th function accesses only the i-th address space — enforced
    structurally (it is *given* only that space; like process bodies, it
    must not smuggle state through closures).  ``fns`` may be:

    * a list of N functions (one per process);
    * a dict ``{rank: fn}`` — unlisted ranks do nothing this block
      (corresponding to processes that sit out a phase, e.g. grid
      processes during host I/O);
    * a single function plus ``spmd=True`` — the same function for every
      rank (it receives ``(store, rank)``), the common SPMD case.
    """

    fns: Union[list[LocalFn], dict[int, LocalFn], Callable[[AddressSpace, int], None]]
    name: str = "local"
    spmd: bool = False

    def fn_for(self, rank: int) -> Callable[[AddressSpace], None] | None:
        if self.spmd:
            fn = self.fns

            def bound(store: AddressSpace, _fn=fn, _rank=rank) -> None:
                _fn(store, _rank)

            return bound
        if isinstance(self.fns, dict):
            return self.fns.get(rank)
        if isinstance(self.fns, list):
            if rank < len(self.fns):
                return self.fns[rank]
            return None
        raise RefinementError(
            f"local block {self.name!r}: fns must be list, dict, or "
            "spmd callable"
        )

    def apply(self, stores: Sequence[AddressSpace]) -> None:
        """Run every per-process function, in rank order.

        Rank order is arbitrary but fixed: the functions touch disjoint
        address spaces, so any order gives the same result — that is
        what makes the block parallelisable.
        """
        for rank in range(len(stores)):
            fn = self.fn_for(rank)
            if fn is not None:
                fn(stores[rank])


Stage = Union[LocalBlock, DataExchange, ExchangeBegin, ExchangeEnd]


@dataclass
class SimulatedParallelProgram:
    """An alternating sequence of local blocks and data exchanges."""

    nprocs: int
    stages: list[Stage] = field(default_factory=list)
    name: str = "program"

    # -- builder API -------------------------------------------------------------

    def local(
        self,
        fns: Union[list[LocalFn], dict[int, LocalFn]],
        name: str = "",
    ) -> "SimulatedParallelProgram":
        """Append a local-computation block (chainable)."""
        self.stages.append(LocalBlock(fns, name or f"local{len(self.stages)}"))
        return self

    def spmd(
        self, fn: Callable[[AddressSpace, int], None], name: str = ""
    ) -> "SimulatedParallelProgram":
        """Append an SPMD local block: ``fn(store, rank)`` for all ranks."""
        self.stages.append(
            LocalBlock(fn, name or f"local{len(self.stages)}", spmd=True)
        )
        return self

    def exchange(self, op: DataExchange) -> "SimulatedParallelProgram":
        """Append a data-exchange operation (chainable)."""
        self.stages.append(op)
        return self

    # -- structure ---------------------------------------------------------------

    def local_blocks(self) -> list[LocalBlock]:
        return [s for s in self.stages if isinstance(s, LocalBlock)]

    def exchanges(self) -> list[DataExchange]:
        """Every data-exchange operation, in stage order.

        A split begin/end pair shares one operation; it is reported once
        (at its begin stage), so metrics and channel wiring never double
        count.
        """
        out: list[DataExchange] = []
        for s in self.stages:
            if isinstance(s, DataExchange):
                out.append(s)
            elif isinstance(s, ExchangeBegin):
                out.append(s.op)
        return out

    def validate(self, stores: Sequence[AddressSpace] | None = None) -> None:
        """Validate every data-exchange stage against the restrictions.

        Split stages are additionally checked structurally: each begin
        must be followed (later, not necessarily adjacently) by exactly
        one end referring to it, and each end's begin must come earlier
        — the sequential order that makes the split a refinement.
        """
        open_begins: list[ExchangeBegin] = []
        seen_begins: set[int] = set()
        for stage in self.stages:
            if isinstance(stage, DataExchange):
                stage.validate(nprocs=self.nprocs, stores=stores)
            elif isinstance(stage, ExchangeBegin):
                stage.op.validate(nprocs=self.nprocs, stores=stores)
                open_begins.append(stage)
                seen_begins.add(id(stage))
            elif isinstance(stage, ExchangeEnd):
                if id(stage.begin) not in seen_begins:
                    raise RefinementError(
                        f"program {self.name!r}: exchange end "
                        f"{stage.name!r} precedes its begin stage (or the "
                        "begin is missing)"
                    )
                matches = [b for b in open_begins if b is stage.begin]
                if not matches:
                    raise RefinementError(
                        f"program {self.name!r}: exchange begin "
                        f"{stage.begin.name!r} has more than one end stage"
                    )
                open_begins = [b for b in open_begins if b is not stage.begin]
        if open_begins:
            names = [b.name for b in open_begins]
            raise RefinementError(
                f"program {self.name!r}: exchange begins {names} have no "
                "matching end stage"
            )

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        stores: Sequence[AddressSpace] | None = None,
        initial: dict[str, Any] | None = None,
        validate: bool = False,
    ) -> list[AddressSpace]:
        """Execute sequentially; returns the (mutated) address spaces.

        Provide either ready-made ``stores`` (length ``nprocs``) or an
        ``initial`` mapping duplicated into fresh spaces.  With
        ``validate=True`` every exchange is re-checked against live
        shapes just before it runs.
        """
        if stores is None:
            stores = make_stores(self.nprocs, initial)
        if len(stores) != self.nprocs:
            raise RefinementError(
                f"program {self.name!r} needs {self.nprocs} stores, got "
                f"{len(stores)}"
            )
        for stage in self.stages:
            if isinstance(stage, DataExchange):
                if validate:
                    stage.validate(nprocs=self.nprocs, stores=stores)
                stage.apply(stores)
            elif isinstance(stage, ExchangeBegin):
                if validate:
                    stage.op.validate(nprocs=self.nprocs, stores=stores)
                stage.apply(stores)
            else:
                stage.apply(stores)
        return list(stores)

    def describe(self) -> str:
        lines = [f"simulated-parallel program {self.name!r} (N={self.nprocs}):"]
        for i, stage in enumerate(self.stages):
            if isinstance(stage, DataExchange):
                n = len(stage.assignments)
                lines.append(
                    f"  {i:3d} exchange {stage.name!r} ({n} assignments, "
                    f"{len(stage.message_pairs())} message pairs)"
                )
            elif isinstance(stage, ExchangeBegin):
                op = stage.op
                lines.append(
                    f"  {i:3d} ex-begin {stage.name!r} "
                    f"({len(op.assignments)} assignments, "
                    f"{len(op.message_pairs())} message pairs)"
                )
            elif isinstance(stage, ExchangeEnd):
                lines.append(f"  {i:3d} ex-end   {stage.name!r}")
            else:
                lines.append(f"  {i:3d} local    {stage.name!r}")
        return "\n".join(lines)
