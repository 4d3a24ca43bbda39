"""Boundary-exchange operations.

The first and most important mesh-archetype communication operation:
refresh every rank's ghost strips with the neighbouring ranks' owned
boundary strips.  Provided in the two forms the methodology needs:

* :func:`boundary_exchange_op` — a checked
  :class:`~repro.refinement.dataexchange.DataExchange` for use inside a
  sequential simulated-parallel program (and, through
  :func:`~repro.refinement.transform.to_parallel_system`, mechanically
  as message passing);
* :func:`exchange_boundaries_msg` — a direct message-passing routine
  for hand-written process bodies using a
  :class:`~repro.runtime.communicator.Communicator` (the "archetype
  library routine" form, paper section 3.3): all sends posted first,
  then all receives, per the ordering Theorem 1's application
  prescribes.

Both forms take ``faces=``: the ghost faces the exchange has to fill,
as a set of ``(variable, axis, side)`` triples (``side`` is the
*receiver's* ghost side).  Theorem 1 makes any exchange determinate, so
which strips travel is free as long as every ghost cell the next local
block reads was filled first; a one-sided stencil declares its
footprint and ships only that.  ``None`` means every face of every
variable.
"""

from __future__ import annotations

import numpy as np

from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.archetypes.mesh.ghost import ghost_face_region, owned_face_region
from repro.errors import ArchetypeError
from repro.refinement.dataexchange import DataExchange, VarRef
from repro.refinement.split import ExchangeBegin, ExchangeEnd, split_exchange
from repro.runtime.communicator import Communicator

__all__ = [
    "boundary_exchange_op",
    "boundary_exchange_multi_op",
    "boundary_exchange_split",
    "boundary_exchange_ops_with_corners",
    "exchange_boundaries_msg",
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


def exchange_boundaries_msg(
    comm: Communicator,
    decomp: BlockDecomposition,
    grid_rank: int,
    local: np.ndarray,
    tag_base: int = 0,
    rank_offset: int = 0,
    var: str | None = None,
    faces=None,
) -> None:
    """Message-passing boundary exchange for one rank's ghosted array.

    ``grid_rank`` is the rank within the decomposition;
    ``comm.rank`` must equal ``grid_rank + rank_offset``.  Tags encode
    (axis, direction) so the two messages that cross on one face cannot
    be confused; ``tag_base`` isolates successive exchanges.

    All sends are posted before any receive — the exchange can never
    self-block, in any interleaving.

    ``faces`` is the same footprint the ``DataExchange`` form takes and
    ``var`` names which of its variables ``local`` holds: the rank
    fills only its declared ghost faces, and ships a strip only where
    the neighbour's facing ghost is declared — message for message what
    :func:`boundary_exchange_op` with the same ``faces`` refines to.

    When the run is observed, the two phases appear as spans
    ``exchange:send`` and ``exchange:recv`` (category ``exchange``), so
    the timeline separates the copy-out/post cost from the wait for
    neighbours.
    """
    if faces is not None:
        if var is None:
            raise ArchetypeError(
                "exchange_boundaries_msg: faces= needs var= to say which "
                "variable the array holds"
            )
        check_faces(decomp, None, faces)

    def wanted(axis: int, side: int) -> bool:
        return faces is None or (var, axis, side) in faces

    # Phase 1: copy out and send every face strip.
    with comm.ctx.span("exchange:send", cat="exchange"):
        for axis in range(decomp.ndim):
            for direction in (-1, 1):
                nb = decomp.pgrid.neighbor(grid_rank, axis, direction)
                # The neighbour receives this strip on its -direction side.
                if nb is None or not wanted(axis, -direction):
                    continue
                strip = local[
                    owned_face_region(decomp, grid_rank, axis, direction)
                ]
                tag = tag_base + 4 * axis + (0 if direction == -1 else 1)
                comm.send(strip.copy(), dest=nb + rank_offset, tag=tag)
    # Phase 2: receive every ghost strip.
    with comm.ctx.span("exchange:recv", cat="exchange"):
        for axis in range(decomp.ndim):
            for direction in (-1, 1):
                nb = decomp.pgrid.neighbor(grid_rank, axis, direction)
                if nb is None or not wanted(axis, direction):
                    continue
                # The neighbour sent toward us: it used direction
                # -direction, whose tag parity is
                # (0 if -direction == -1 else 1).
                tag = tag_base + 4 * axis + (0 if direction == 1 else 1)
                strip = comm.recv(source=nb + rank_offset, tag=tag)
                local[
                    ghost_face_region(decomp, grid_rank, axis, direction)
                ] = strip
