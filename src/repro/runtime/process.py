"""Process specifications.

A process in the paper's model is a *sequential, deterministic* program
with a private address space.  Here a process is described by a
:class:`ProcessSpec`: a rank, a body (a plain Python callable taking a
:class:`~repro.runtime.context.ProcessContext`), and an initial local
store.  The same spec is executed unchanged by both engines — this is
what makes "the parallel program and its simulation run the same code"
a checked property rather than an analogy.

Determinism is a *contract* on bodies: they must not consult wall-clock
time, unseeded randomness, or anything outside ``ctx``.  The library
cannot verify the contract statically, but :mod:`repro.theory.determinacy`
verifies its observable consequence — identical final states across
interleavings — and :mod:`repro.theory.violations` demonstrates what
breaks when the contract is violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.util import copy_unless_constant

__all__ = ["ProcessSpec"]


@dataclass
class ProcessSpec:
    """Description of one process in a system.

    Parameters
    ----------
    rank:
        The process index, ``0 <= rank < nprocs``, unique in its system.
    body:
        ``body(ctx)`` — runs to completion using only ``ctx`` for
        communication and ``ctx.store`` for state.  Its return value is
        captured in the run result.  A body is *immutable once bound*:
        it must not carry state from one run to the next, and what it
        closes over must not be edited between runs — the threaded
        engine re-runs the very same closure objects, and the process
        engines ship an image pickled once per ``System``
        (:func:`repro.dist.closures.body_payloads`) to every later run,
        where a pool worker or daemon that has already unpickled it
        re-runs that same unpickled closure (one rank at a time per
        instance), as the threaded engine always has.
        To change a rank's program, bind a new callable to ``body``
        (noticed by identity); per-run inputs belong in ``store``.
    store:
        Initial local data.  Every *variable* is deep-copied at every
        run start so that (a) repeated runs are independent and (b) no
        mutable state is shared between processes (the model's "no
        shared variables").  A *constant* — a read-only array,
        :func:`repro.util.is_constant`, and nothing else declares one —
        is handed to every run by reference instead: it cannot be
        assigned, so sharing it breaks neither property, and a body
        that tries fails with NumPy's own refusal wrapped in a
        :class:`~repro.errors.ProcessFailedError` on every engine.  The
        process engines do the same across address spaces (one resident
        shared segment per rank, written once per ``System``; see
        :class:`repro.dist.shm.SharedStoreArena`).
    name:
        Optional human-readable name used in traces and diagnostics.
    """

    rank: int
    body: Callable[..., Any]
    store: dict[str, Any] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"process rank must be non-negative, got {self.rank}")
        if not callable(self.body):
            raise TypeError("process body must be callable")
        if not self.name:
            self.name = f"P{self.rank}"

    def fresh_store(self) -> dict[str, Any]:
        """The initial store for one run: variables copied, constants
        shared."""
        return {k: copy_unless_constant(v) for k, v in self.store.items()}
