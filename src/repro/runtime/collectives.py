"""Collective operations over a :class:`~repro.runtime.communicator.Communicator`.

The mesh archetype's communication library (paper section 4.2) needs a
small set of collective patterns:

* **broadcast of global data** — binomial tree from the root;
* **reduction support** — both implementations the paper names:
  *all-to-one/one-to-all* (gather values to a root, combine, broadcast
  the result) and *recursive doubling* (butterfly exchange, every rank
  finishes with the result);
* **redistribution** — gather/scatter between a host process and grid
  processes, for file I/O.

Determinism note: with floating-point operands, reduction results
depend on combination order.  Every algorithm here fixes its
combination order deterministically (all-to-one combines in increasing
rank order; recursive doubling combines lower-rank operand first), so a
given algorithm at a given process count is bit-reproducible run to
run — while *different* algorithms or process counts may legitimately
differ.  That gap is not a bug: it is the associativity phenomenon the
paper's far-field experiment tripped over, reproduced in experiment E2.

SPMD contract: all participating ranks must call the same collectives
in the same order.  Each collective invocation draws a fresh tag block
from a per-communicator counter, so consecutive collectives can never
confuse each other's messages.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.errors import CommunicatorError
from repro.runtime.communicator import Communicator

__all__ = ["Collectives"]

# Tags within one collective's block.
_TAG_SPAN = 8
_T_DATA = 0
_T_UP = 1
_T_DOWN = 2
_T_BARRIER = 3


def _timed(op_name: str):
    """Record each invocation as a ``collective:<op>`` span.

    Composite collectives (reduce_one_to_all, allgather) produce nested
    spans — the composite and its constituent operations — which is the
    intended reading of the timeline.  With instrumentation off the
    span is a shared no-op (``ctx.span``).
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            with self.comm.ctx.span(f"collective:{op_name}", cat="collective"):
                return fn(self, *args, **kwargs)

        return wrapper

    return deco


class Collectives:
    """Stateful facade: collective operations for one rank.

    Wraps a communicator; maintains an operation counter that all ranks
    advance in lockstep (SPMD), giving every collective a private tag
    block.
    """

    def __init__(self, comm: Communicator):
        self.comm = comm
        self.rank = comm.rank
        self.size = comm.size
        self._op_counter = 0

    def _tags(self) -> int:
        base = self._op_counter * _TAG_SPAN
        self._op_counter += 1
        return base

    # -- broadcast ---------------------------------------------------------------

    @_timed("broadcast")
    def broadcast(self, value: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the root's value on all ranks.

        log2(P) rounds; in round k, every rank that already holds the
        value forwards it to the rank 2^k away (in root-relative
        numbering).
        """
        self._check_root(root)
        base = self._tags()
        rel = (self.rank - root) % self.size
        have = rel == 0
        k = 1
        while k < self.size:
            if have and rel + k < self.size:
                dest = (root + rel + k) % self.size
                self.comm.send(value, dest, base + _T_DATA)
            elif not have and rel < 2 * k:
                src = (root + rel - k) % self.size
                value = self.comm.recv(src, base + _T_DATA)
                have = True
            k *= 2
        return value

    # -- reductions ---------------------------------------------------------------

    @_timed("reduce_all_to_one")
    def reduce_all_to_one(
        self, value: Any, op: Callable[[Any, Any], Any], root: int = 0
    ) -> Any:
        """All-to-one reduction: every rank sends to the root, which
        combines contributions in increasing rank order.  Non-roots
        return ``None``.

        O(P) messages into the root; the paper lists this alongside
        recursive doubling as an archetype reduction implementation, and
        ablation A2 compares their modeled cost.
        """
        self._check_root(root)
        base = self._tags()
        if self.rank != root:
            self.comm.send(value, root, base + _T_UP)
            return None
        acc: Any = None
        # Combine in increasing rank order for a deterministic result.
        for r in range(self.size):
            if r == root:
                contrib = value
            else:
                contrib = self.comm.recv(r, base + _T_UP)
            acc = contrib if r == 0 else op(acc, contrib)
        return acc

    @_timed("reduce_one_to_all")
    def reduce_one_to_all(
        self, value: Any, op: Callable[[Any, Any], Any], root: int = 0
    ) -> Any:
        """All-to-one reduction followed by one-to-all broadcast: every
        rank returns the combined value (the 'all-to-one/one-to-all'
        pattern of section 4.2)."""
        result = self.reduce_all_to_one(value, op, root)
        return self.broadcast(result, root)

    @_timed("allreduce_recursive_doubling")
    def allreduce_recursive_doubling(
        self, value: Any, op: Callable[[Any, Any], Any]
    ) -> Any:
        """Recursive-doubling allreduce (Van de Velde's method, which the
        paper cites for concurrent reductions).

        For P a power of two: log2(P) butterfly rounds; at each round a
        rank exchanges its partial with ``rank XOR 2^k`` and combines,
        always placing the lower rank's operand first so every rank
        computes bitwise the same result.

        For other P: the trailing ``P - 2^k`` ranks first fold their
        values into a partner inside the leading power-of-two block,
        the block runs the butterfly, and results are sent back out.
        """
        base = self._tags()
        p2 = 1
        while p2 * 2 <= self.size:
            p2 *= 2
        extra = self.size - p2

        acc = value
        in_block = self.rank < p2
        if self.rank >= p2:
            # Fold my value into rank - p2, then wait for the result.
            self.comm.send(acc, self.rank - p2, base + _T_UP)
            return self.comm.recv(self.rank - p2, base + _T_DOWN)
        if self.rank < extra:
            other = self.comm.recv(self.rank + p2, base + _T_UP)
            acc = op(acc, other)

        k = 1
        while k < p2:
            partner = self.rank ^ k
            other = self.comm.sendrecv(acc, partner, base + _T_DATA + 4)
            # Lower-rank operand first: both sides combine identically.
            acc = op(acc, other) if self.rank < partner else op(other, acc)
            k *= 2

        if in_block and self.rank < extra:
            self.comm.send(acc, self.rank + p2, base + _T_DOWN)
        return acc

    # -- gather / scatter ------------------------------------------------------------

    @_timed("gather")
    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to the root (rank order); ``None``
        elsewhere."""
        self._check_root(root)
        base = self._tags()
        if self.rank != root:
            self.comm.send(value, root, base + _T_UP)
            return None
        out = []
        for r in range(self.size):
            out.append(value if r == root else self.comm.recv(r, base + _T_UP))
        return out

    @_timed("scatter")
    def scatter(self, values: list[Any] | None, root: int = 0) -> Any:
        """Scatter ``values[r]`` to each rank ``r`` from the root."""
        self._check_root(root)
        base = self._tags()
        if self.rank == root:
            if values is None or len(values) != self.size:
                raise CommunicatorError(
                    f"scatter root needs exactly {self.size} values, got "
                    f"{None if values is None else len(values)}"
                )
            for r in range(self.size):
                if r != root:
                    self.comm.send(values[r], r, base + _T_DOWN)
            return values[root]
        return self.comm.recv(root, base + _T_DOWN)

    @_timed("allgather")
    def allgather(self, value: Any) -> list[Any]:
        """Every rank returns the list of all ranks' values (rank order)."""
        gathered = self.gather(value, root=0)
        return self.broadcast(gathered, root=0)

    # -- synchronisation ------------------------------------------------------------

    @_timed("barrier")
    def barrier(self) -> None:
        """Dissemination barrier: log2(P) rounds of token exchange."""
        base = self._tags()
        k = 1
        while k < self.size:
            dest = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            self.comm.send(True, dest, base + _T_BARRIER)
            self.comm.recv(src, base + _T_BARRIER)
            k *= 2

    # -- internals ---------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommunicatorError(
                f"root {root} out of range for {self.size} processes"
            )
