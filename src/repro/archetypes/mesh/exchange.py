"""Boundary-exchange operations.

The first and most important mesh-archetype communication operation:
refresh every rank's ghost strips with the neighbouring ranks' owned
boundary strips.  It is provided in one form: a checked
:class:`~repro.refinement.dataexchange.DataExchange` (or a begin/end
pair of them) for use inside a sequential simulated-parallel program.
The message-passing routine of the paper's archetype library (section
3.3) is what :func:`~repro.refinement.transform.to_parallel_system`
derives from it mechanically: every send of a rank posted before any
of its receives, the ordering Theorem 1's application prescribes.

Every operation here takes ``faces=``: the ghost faces the exchange has
to fill, as a set of ``(variable, axis, side)`` triples (``side`` is
the *receiver's* ghost side).  Theorem 1 makes any exchange
determinate, so which strips travel is free as long as every ghost cell
the next local block reads was filled first; a one-sided stencil
declares its footprint and ships only that.  ``None`` means every face
of every variable.
"""

from __future__ import annotations

from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.archetypes.mesh.ghost import ghost_face_region, owned_face_region
from repro.errors import ArchetypeError
from repro.refinement.dataexchange import DataExchange, VarRef
from repro.refinement.split import ExchangeBegin, ExchangeEnd, split_exchange

__all__ = [
    "boundary_exchange_op",
    "boundary_exchange_multi_op",
    "boundary_exchange_split",
    "boundary_exchange_ops_with_corners",
]


def check_faces(decomp: BlockDecomposition, variables, faces) -> None:
    """Reject a ``faces`` entry that names no face of this exchange: a
    misspelt footprint would otherwise silently ship nothing and leave
    the ghost it meant stale.  ``variables=None`` skips the variable
    check: one phase's footprint is shared by its per-variable
    exchanges, each of which sees only its own entries."""
    if faces is None:
        return
    for face in faces:
        var, axis, side = face
        if variables is not None and var not in variables:
            raise ArchetypeError(
                f"faces entry {face!r}: variable {var!r} is not exchanged "
                f"here (exchanging {sorted(variables)})"
            )
        if axis not in range(decomp.ndim):
            raise ArchetypeError(
                f"faces entry {face!r}: axis {axis!r} out of range for a "
                f"{decomp.ndim}-D decomposition"
            )
        if side not in (-1, 1):
            raise ArchetypeError(
                f"faces entry {face!r}: side must be -1 or +1"
            )


def boundary_exchange_op(
    decomp: BlockDecomposition,
    var: str,
    name: str = "",
    rank_offset: int = 0,
    faces=None,
) -> DataExchange:
    """The boundary exchange for ``var`` as a data-exchange operation.

    For every inter-process face, one assignment copies the sender's
    owned strip into the receiver's ghost strip.  ``rank_offset`` shifts
    partition numbers (used when grid processes do not start at
    partition 0, e.g. in a layout with a separate host process).

    With a single process there are no faces: the returned operation is
    empty, with an empty participant set (a no-op stage).
    """
    return boundary_exchange_multi_op(
        decomp, [var], name=name, rank_offset=rank_offset, faces=faces
    )


def boundary_exchange_multi_op(
    decomp: BlockDecomposition,
    variables,
    name: str = "",
    rank_offset: int = 0,
    faces=None,
) -> DataExchange:
    """One *combined* boundary exchange covering several variables.

    Semantically identical to a sequence of per-variable
    :func:`boundary_exchange_op` stages — the assignment set is the
    union, and assignments to distinct variables (or distinct faces)
    never overlap, so restriction (i) holds and the copied values are
    bitwise the same.  The payoff is in the refined message-passing
    form: the transform groups assignments per (sender, receiver), so
    every variable's strip for a neighbour pair folds into **one**
    message — one wire frame where the per-variable form pays one per
    variable (paper §3's per-pair grouping, applied across fields).

    ``faces`` restricts the assignments to the declared ``(variable,
    axis, side)`` ghost faces; a rank left with no assignment is not a
    participant, so restriction (iii) holds over the ranks that do
    receive.
    """
    variables = list(variables)
    check_faces(decomp, None, faces)
    op = DataExchange(name=name or "exchange:" + "+".join(variables))
    receivers: set[int] = set()
    for rank, axis, direction, nb in decomp.all_faces():
        # ``rank`` receives into its ghost strip on side ``direction``
        # from neighbour ``nb``'s owned strip on the opposite side.
        for var in variables:
            if faces is not None and (var, axis, direction) not in faces:
                continue
            dst = VarRef(
                rank + rank_offset,
                var,
                ghost_face_region(decomp, rank, axis, direction),
            )
            src = VarRef(
                nb + rank_offset,
                var,
                owned_face_region(decomp, nb, axis, -direction),
            )
            op.assign(dst, src)
            receivers.add(rank + rank_offset)
    op.participants = frozenset(receivers)
    return op


def boundary_exchange_split(
    decomp: BlockDecomposition,
    variables,
    name: str = "",
    rank_offset: int = 0,
    faces=None,
) -> tuple[ExchangeBegin, ExchangeEnd] | tuple[None, None]:
    """The combined boundary exchange as a *split* begin/end stage pair
    — the mesh archetype's compute/communication overlap form.

    The operation is exactly :func:`boundary_exchange_multi_op` (one
    frame per neighbour pair); splitting changes only *when* each half
    runs.  The begin stage reads the owned strips and launches the
    sends; the caller then appends interior-only local blocks (which by
    construction touch neither the strips just read nor the ghost cells
    about to be written); the end stage receives into the ghost strips
    at the point of first use.  With a single process there are no
    faces and no stages: returns ``(None, None)`` so builders can skip
    the pair the same way they skip an empty exchange.
    """
    op = boundary_exchange_multi_op(
        decomp, variables, name=name, rank_offset=rank_offset, faces=faces
    )
    if not op.assignments:
        return None, None
    return split_exchange(op)


def boundary_exchange_ops_with_corners(
    decomp: BlockDecomposition,
    var: str,
    name: str = "",
    rank_offset: int = 0,
) -> list[DataExchange]:
    """Dimension-ordered exchanges that also fill ghost *corners*.

    One :class:`~repro.refinement.dataexchange.DataExchange` per axis,
    applied in axis order: the axis-``a`` strips span the full local
    extent along every earlier axis, so they carry the ghost values
    received in those earlier exchanges — after the last exchange every
    ghost cell (faces, edges and corners) holds its neighbour's value.
    This is the exchange deep-ghost redundant computation
    (:mod:`~repro.archetypes.mesh.redundancy`) requires; the plain
    face exchange (:func:`boundary_exchange_op`) suffices for
    face-stencil sweeps with exchange every step.
    """
    base = name or f"exchange+corners:{var}"
    ops: list[DataExchange] = []
    for axis in range(decomp.ndim):
        op = DataExchange(name=f"{base}[axis{axis}]")
        receivers: set[int] = set()
        for rank in range(decomp.nprocs):
            for direction in (-1, 1):
                nb = decomp.pgrid.neighbor(rank, axis, direction)
                if nb is None:
                    continue
                op.assign(
                    VarRef(
                        rank + rank_offset,
                        var,
                        ghost_face_region(
                            decomp, rank, axis, direction, full_span_below=True
                        ),
                    ),
                    VarRef(
                        nb + rank_offset,
                        var,
                        owned_face_region(
                            decomp, nb, axis, -direction, full_span_below=True
                        ),
                    ),
                )
                receivers.add(rank + rank_offset)
        op.participants = frozenset(receivers)
        if op.assignments:
            ops.append(op)
    return ops
