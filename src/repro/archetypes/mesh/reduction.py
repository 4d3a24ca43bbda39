"""Reduction support for the mesh archetype.

The paper lists two implementations of reduction (section 4.2): the
all-to-one/one-to-all pattern and recursive doubling.  For the
*simulated-parallel program* form, reductions decompose into ordinary
stages:

1. (caller's job) a local block computing each rank's partial result;
2. a **gather exchange** collecting every partial into a buffer on the
   root — ``root.buf[k] := P_k.partial``;
3. a **combine block** on the root folding the buffer *in rank order*
   (fixed order: deterministic floating point);
4. optionally a **broadcast exchange** ``P_k.result := root.result``.

Reordering real summands is exactly what broke the paper's far-field
results, so the combine step's fixed rank order is load-bearing: it
makes the reduction deterministic *given* the decomposition, while
still differing (legitimately) from the sequential program's order —
the phenomenon experiment E2 measures.

The direct message-passing counterparts (all-to-one, one-to-all,
recursive doubling over a communicator) live in
:mod:`repro.runtime.collectives`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ArchetypeError
from repro.refinement.dataexchange import DataExchange, VarRef
from repro.refinement.program import LocalBlock

__all__ = [
    "gather_stage",
    "combine_block",
    "broadcast_stage",
    "partials_buffer",
]


def partials_buffer(nranks: int, example: np.ndarray | float) -> np.ndarray:
    """Initial value for a root-side gather buffer: one slot per rank."""
    arr = np.asarray(example, dtype=np.float64)
    return np.zeros((nranks, *arr.shape), dtype=np.float64)


def gather_stage(
    ranks: Sequence[int],
    src_var: str,
    buf_var: str,
    root: int,
) -> DataExchange:
    """``root.buf[k] := ranks[k].src`` for every k (root's own entry is
    a local assignment).  Only the root receives, so the participant set
    is ``{root}`` (restriction (iii) narrowed, as documented)."""
    op = DataExchange(name=f"gather:{src_var}", participants=frozenset({root}))
    for k, rank in enumerate(ranks):
        op.assign(VarRef(root, buf_var, (k,)), VarRef(rank, src_var))
    return op


def neumaier_fold(buf: np.ndarray) -> np.ndarray:
    """Elementwise Neumaier (improved Kahan) summation over axis 0.

    The compensated-combine used by ``mode="kahan"``: each element of
    the result is the compensated sum of that element's per-rank
    partials, accurate to ~1 ulp of the exact value regardless of the
    number or order of partials — the "more sophisticated strategy" the
    paper notes it did not pursue for the far-field reduction.
    """
    buf = np.asarray(buf, dtype=np.float64)
    acc = buf[0].copy() if buf.ndim > 1 else np.float64(buf[0])
    comp = np.zeros_like(acc)
    for k in range(1, buf.shape[0]):
        v = buf[k]
        t = acc + v
        big = np.abs(acc) >= np.abs(v)
        comp = comp + np.where(big, (acc - t) + v, (v - t) + acc)
        acc = t
    return acc + comp


def combine_block(
    buf_var: str,
    result_var: str,
    nranks: int,
    root_local_index: int,
    op: Callable[[Any, Any], Any] | None = None,
    name: str = "",
    mode: str = "fold",
) -> LocalBlock:
    """Combine the gather buffer on the root.

    ``mode="fold"`` (default) folds in rank order with ``op`` (default
    addition) — deterministic for a given P, but a *reordering* of the
    original sequential sum, hence the far-field discrepancy.
    ``mode="kahan"`` ignores ``op`` and combines with elementwise
    compensated summation (:func:`neumaier_fold`), which is accurate to
    the last bit or two of the exact sum and therefore nearly
    independent of P.
    """
    if mode not in ("fold", "kahan"):
        raise ArchetypeError(f"unknown combine mode {mode!r}")
    if mode == "kahan" and op is not None:
        raise ArchetypeError("mode='kahan' is addition-only; drop op")
    combine = op or (lambda a, b: a + b)

    def fold(store) -> None:
        buf = store[buf_var]
        if mode == "kahan":
            acc = neumaier_fold(np.asarray(buf))
        else:
            acc = np.asarray(buf[0]).copy()
            for k in range(1, nranks):
                acc = combine(acc, buf[k])
        store.write_region(result_var, None, acc)

    return LocalBlock({root_local_index: fold}, name or f"combine:{result_var}")


def broadcast_stage(
    ranks: Sequence[int],
    src_var: str,
    dst_var: str,
    root: int,
) -> DataExchange:
    """``P_k.dst := root.src`` for every k, including the root itself.

    Requires ``dst_var != src_var`` (otherwise the root's target would
    overlap every other assignment's source, violating restriction (i));
    in exchange, every participant receives a value, satisfying
    restriction (iii) in full.
    """
    if dst_var == src_var:
        raise ArchetypeError(
            "broadcast_stage needs distinct source and destination "
            f"variables, got {src_var!r} for both (the root's local copy "
            "would violate data-exchange restriction (i))"
        )
    op = DataExchange(
        name=f"broadcast:{src_var}", participants=frozenset(ranks)
    )
    for rank in ranks:
        op.assign(VarRef(rank, dst_var), VarRef(root, src_var))
    return op
