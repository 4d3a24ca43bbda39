"""Operation counting for the parallelized FDTD codes.

The counts are extracted from the *same* objects the real
parallelization uses — the block decomposition of the node grid and the
NTFF surface restriction — so the model's communication schedule is the
implementation's, not a separate estimate:

* **compute**: ~8 flops per node per component per step (one
  ``curl_update``: two differences, two spacing scalings, one subtract,
  two coefficient multiplies, one add), 6 components, counted over each
  rank's owned nodes;
* **boundary exchange**: per step, each of the two phases moves one
  ghost-deep face strip per declared ``(variable, axis, side)`` ghost
  face, one message each — for FDTD the phase's ghost-read footprint
  (:data:`~repro.apps.fdtd.update.H_GHOST_FACES` /
  :data:`~repro.apps.fdtd.update.E_GHOST_FACES`: two of the three
  components, one direction per inter-rank face), the same sets the
  parallel program passes to its exchanges;
* **far field** (Version C): per step, each rank processes its owned
  surface points (~60 flops each, covering the cross products, area
  scaling and retarded binning across the three observation
  directions), with an end-of-run all-to-one reduction of the potential
  arrays;
* **host I/O**: collect (and optionally distribute) of the six field
  arrays between grid processes and the host.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.apps.fdtd.update import E_GHOST_FACES, H_GHOST_FACES
from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.util import product

__all__ = [
    "FLOPS_PER_NODE_STEP",
    "FARFIELD_FLOPS_PER_POINT",
    "CommVolume",
    "FDTDStepCosts",
    "exchange_comm_volume",
    "fdtd_step_costs",
    "surface_points",
    "surface_points_per_rank",
]

#: 6 components x ~8 flops per curl_update point.
FLOPS_PER_NODE_STEP: float = 48.0

#: Equivalent currents (2 cross products, 18 flops), area scaling (6),
#: and retarded accumulation for 3 observation directions (~36).
FARFIELD_FLOPS_PER_POINT: float = 60.0


@dataclass(frozen=True)
class CommVolume:
    """One communication round's traffic."""

    total_messages: int
    total_bytes: float
    max_rank_messages: int
    max_rank_bytes: float

    def __add__(self, other: "CommVolume") -> "CommVolume":
        return CommVolume(
            self.total_messages + other.total_messages,
            self.total_bytes + other.total_bytes,
            self.max_rank_messages + other.max_rank_messages,
            self.max_rank_bytes + other.max_rank_bytes,
        )


def exchange_comm_volume(
    decomp: BlockDecomposition, nvars: int, word_bytes: int, faces=None
) -> CommVolume:
    """Traffic of one boundary-exchange phase of ``nvars`` arrays.

    ``faces`` is the exchange's declared ``(variable, axis, side)``
    ghost faces (as passed to the mesh exchange operations): a rank's
    ghost face on ``(axis, side)`` then receives one strip per variable
    declared for it instead of ``nvars``.  Per-rank figures count what
    the rank receives.
    """
    per_face = Counter((axis, side) for _, axis, side in faces or ())
    total_messages = 0
    total_bytes = 0.0
    max_msgs = 0
    max_bytes = 0.0
    for rank in range(decomp.nprocs):
        msgs = 0
        nbytes = 0.0
        shape = decomp.owned_shape(rank)
        for axis in range(decomp.ndim):
            for direction in (-1, 1):
                if decomp.pgrid.neighbor(rank, axis, direction) is None:
                    continue
                strip = decomp.ghost * product(
                    s for a, s in enumerate(shape) if a != axis
                )
                n = nvars if faces is None else per_face[(axis, direction)]
                msgs += n  # one message per (face, var)
                nbytes += n * strip * word_bytes
        total_messages += msgs
        total_bytes += nbytes
        max_msgs = max(max_msgs, msgs)
        max_bytes = max(max_bytes, nbytes)
    return CommVolume(total_messages, total_bytes, max_msgs, max_bytes)


def surface_points(grid_cells: tuple[int, int, int], gap: int) -> int:
    """Node count of the closed NTFF surface box."""
    extents = [n - 2 * gap + 1 for n in grid_cells]
    if any(e < 2 for e in extents):
        return 0
    total = 0
    for axis in range(3):
        transverse = product(e for a, e in enumerate(extents) if a != axis)
        total += 2 * transverse
    return total


def surface_points_per_rank(
    grid_cells: tuple[int, int, int],
    gap: int,
    decomp: BlockDecomposition,
) -> list[int]:
    """Exact per-rank surface-point counts under the decomposition.

    Mirrors the restriction rule of
    :class:`~repro.apps.fdtd.ntff.NTFFAccumulator`: a surface node
    belongs to the rank owning it in the node decomposition.
    """
    bounds = [(gap, n - gap) for n in grid_cells]
    counts = []
    for rank in range(decomp.nprocs):
        owned = decomp.owned_bounds(rank)
        n = 0
        for axis in range(3):
            for side in (0, 1):
                plane = bounds[axis][side]
                if not owned[axis][0] <= plane < owned[axis][1]:
                    continue
                pts = 1
                for a in range(3):
                    if a == axis:
                        continue
                    lo = max(bounds[a][0], owned[a][0])
                    hi = min(bounds[a][1], owned[a][1] - 1)
                    pts *= max(0, hi - lo + 1)
                n += pts
        counts.append(n)
    return counts


@dataclass(frozen=True)
class FDTDStepCosts:
    """Per-time-step costs of one parallel configuration."""

    #: owned-node count of the most loaded rank
    max_rank_nodes: int
    total_nodes: int
    #: both exchange phases (E then H), combined
    exchange: CommVolume
    #: far-field surface points of the most loaded rank (0 for version A)
    max_rank_surface_points: int
    total_surface_points: int

    def max_rank_flops(self) -> float:
        return (
            self.max_rank_nodes * FLOPS_PER_NODE_STEP
            + self.max_rank_surface_points * FARFIELD_FLOPS_PER_POINT
        )


def fdtd_step_costs(
    grid_cells: tuple[int, int, int],
    decomp: BlockDecomposition,
    word_bytes: int,
    version: str = "A",
    ntff_gap: int = 3,
) -> FDTDStepCosts:
    """Assemble one configuration's per-step cost inputs."""
    owned = [product(decomp.owned_shape(r)) for r in range(decomp.nprocs)]
    # Two phases, each filling only the ghost faces its update reads.
    exchange = exchange_comm_volume(
        decomp, 3, word_bytes, faces=H_GHOST_FACES
    ) + exchange_comm_volume(decomp, 3, word_bytes, faces=E_GHOST_FACES)
    if version.upper() == "C":
        per_rank = surface_points_per_rank(grid_cells, ntff_gap, decomp)
        max_sp = max(per_rank)
        total_sp = sum(per_rank)
    else:
        max_sp = total_sp = 0
    return FDTDStepCosts(
        max_rank_nodes=max(owned),
        total_nodes=sum(owned),
        exchange=exchange,
        max_rank_surface_points=max_sp,
        total_surface_points=total_sp,
    )
