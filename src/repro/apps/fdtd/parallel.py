"""Mesh-archetype parallelization of the FDTD codes (paper §4.3-4.4).

This module is the application of the whole methodology:

* the builder declarations in :func:`build_parallel_fdtd` are step 1-2
  of section 4.4 (what is distributed, what is a constant, what lives
  only on the host or the grid, what runs where), checked as they are
  made;
* :func:`build_parallel_fdtd` performs the transformation of section
  4.4: partition the data into simulated address spaces (all six field
  arrays plus the twelve coefficient arrays, block-decomposed with a
  one-cell ghost ring; the coefficients are *constants* — read-only,
  so no engine copies them per run), restructure the time loop into
  local blocks alternating with archetype data-exchange operations,
  and specialise
  per-process computation where needed (physical-boundary trims, Mur
  faces, the ranks a source's region touches, each rank's share of the
  far-field surface), gathered into one
  :class:`~repro.apps.fdtd.step.RankPass` per rank and pass;
* the result is a :class:`ParallelFDTD` handle exposing **both** program
  versions: the sequential simulated-parallel program
  (:meth:`ParallelFDTD.run_simulated`) and its mechanical
  message-passing transform (:meth:`ParallelFDTD.to_parallel`).

Per-step stage structure (the parallel mirror of the sequential
contract in :mod:`~repro.apps.fdtd.version_a`):

1. boundary-exchange of the H ghost faces the E update reads
2. local E phase: Mur record -> E update -> Mur apply -> sources
3. boundary-exchange of the E ghost faces the H update reads
4. local H phase: H update -> far-field accumulation (Version C)

Each exchange ships exactly its phase's *ghost-read footprint*
(:data:`~repro.apps.fdtd.update.H_GHOST_FACES` /
:data:`~repro.apps.fdtd.update.E_GHOST_FACES`, derived from the curl
tables): the E update takes backward differences, so along axis ``a``
it reads only the low-side ghost of the two H components whose curl
entry names ``a`` (``hy,hz`` across an x face, ``hx,hz`` across y,
``hx,hy`` across z); the H update mirrors that on the high side.  Per
inter-rank face and step that is 2 H strips one way and 2 E strips the
other — 4 messages where exchanging all three components both ways
would send 12, and a third of the bytes.  Theorem 1 makes which strips
travel a free choice as long as every ghost cell a local block reads
was filled first; ghost cells no stage reads are simply left stale, and
the owned cells stay bitwise identical
(``tests/fdtd/test_ghost_footprint.py`` poisons every ghost with NaN to
prove it).

Near-field arithmetic is elementwise over partitioned regions, so the
simulated (and parallel) near fields are bitwise identical to the
sequential code's.  The far field is a *reordered* double sum (local
partials, rank-order combine) — deliberately, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.fdtd.boundary import (
    MUR_FACES,
    Mur1,
    mur_face_regions,
    split_mur_regions,
)
from repro.apps.fdtd.grid import (
    COMPONENTS,
    E_COMPONENTS,
    H_COMPONENTS,
    YeeGrid,
)
from repro.apps.fdtd.ntff import NTFFAccumulator, NTFFConfig
from repro.apps.fdtd.step import RankPass
from repro.apps.fdtd.update import (
    E_GHOST_FACES,
    E_SHELL_SIDES,
    H_GHOST_FACES,
    KernelScratch,
    comm_strips,
    intersect_local,
    local_update_regions,
    split_local_update_regions,
    split_region,
)
from repro.apps.fdtd.version_a import FDTDConfig
from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.archetypes.mesh.skeleton import MeshProgramBuilder
from repro.errors import FDTDError
from repro.refinement.store import AddressSpace
from repro.runtime.system import System

__all__ = ["build_parallel_fdtd", "ParallelFDTD"]


def _mur_local_regions(grid: YeeGrid, decomp: BlockDecomposition, rank: int):
    """Per-face (local_face, local_inward) regions for one rank, or None
    where the rank does not touch the face."""
    out = {}
    for comp, axis, side in MUR_FACES:
        face, inward = mur_face_regions(grid, comp, axis, side)
        lf = intersect_local(decomp, rank, face)
        li = intersect_local(decomp, rank, inward)
        if lf is None:
            out[(comp, axis, side)] = None
            continue
        if li is None:
            raise FDTDError(
                f"rank {rank} owns the {comp} face (axis {axis}, side "
                f"{side}) but not its inward plane; blocks must be at "
                "least 2 nodes thick along each Mur axis"
            )
        out[(comp, axis, side)] = (lf, li)
    return out


def rank_passes(
    config: FDTDConfig,
    decomp: BlockDecomposition,
    rank: int,
    accumulator: NTFFAccumulator | None,
    overlap: bool,
) -> list[RankPass]:
    """The §4.4 step-2 specialisation of one grid process, as passes.

    ``[whole]`` for the baseline program; ``[shell, interior]`` under
    ``overlap``, every piece split along the rank's E-side
    communication strips (Mur and the sources write E).  A source
    drives the rank's intersection with its global region: one rank
    for a point source, a slab of ranks for a plane source.  Only the
    last pass accumulates the far field.  The passes share one
    :class:`KernelScratch`: they run one after the other.
    """
    grid = config.grid
    inv_spacing = tuple(1.0 / d for d in grid.spacing)
    scratch = KernelScratch()
    steps = config.steps
    mur_regions = (
        _mur_local_regions(grid, decomp, rank)
        if config.boundary == "mur1"
        else None
    )
    drives = []
    for src in config.sources:
        region = intersect_local(decomp, rank, src.global_region(grid))
        if region is not None:
            drives.append((src, region))
    if not overlap:
        mur = None if mur_regions is None else Mur1(grid, mur_regions)
        regions = local_update_regions(grid, decomp, rank)
        return [
            RankPass(
                regions, mur, drives, accumulator, inv_spacing, scratch, steps
            )
        ]

    strips = comm_strips(decomp, rank, E_SHELL_SIDES)
    shell_regions, interior_regions = split_local_update_regions(
        grid, decomp, rank
    )
    shell_mur = interior_mur = None
    if mur_regions is not None:
        shell_faces, interior_faces = split_mur_regions(mur_regions, strips)
        shell_mur = Mur1(grid, shell_faces)
        interior_mur = Mur1(grid, interior_faces)
    shell_drives, interior_drives = [], []
    for src, region in drives:
        shell, interior = split_region(region, strips)
        shell_drives += [(src, piece) for piece in shell]
        interior_drives += [(src, piece) for piece in interior]
    return [
        RankPass(
            shell_regions,
            shell_mur,
            shell_drives,
            None,
            inv_spacing,
            scratch,
            steps,
        ),
        RankPass(
            interior_regions,
            interior_mur,
            interior_drives,
            accumulator,
            inv_spacing,
            scratch,
            steps,
        ),
    ]


def _overlap_time_loop(
    builder: MeshProgramBuilder, steps: int, passes: list[list[RankPass]]
) -> None:
    """Append the overlapped (shell/interior split) time loop.

    Each combined exchange is split into a begin (send) and end
    (receive) stage with the opposite phase's interior pass between
    them.  The local blocks between a begin and its end touch neither
    the strips the begin staged nor the ghosts the end writes, so by
    the infinite-slack refinement argument
    (:mod:`repro.refinement.split`) every engine computes bitwise the
    same fields as the unsplit program.
    """
    # Prologue: the first step's H ghosts can fly before the loop.
    h_begin = (
        builder.begin_exchange_boundaries(*H_COMPONENTS, faces=H_GHOST_FACES)
        if steps
        else None
    )
    for step in range(steps):
        builder.end_exchange_boundaries(h_begin)
        builder.grid_spmd(
            lambda store, rank, _n=step: passes[rank][0].e(store, _n),
            name=f"E-shell[{step}]",
        )
        e_begin = builder.begin_exchange_boundaries(*E_COMPONENTS, faces=E_GHOST_FACES)
        builder.grid_spmd(
            lambda store, rank, _n=step: passes[rank][1].e(store, _n),
            name=f"E-interior[{step}]",
        )
        builder.end_exchange_boundaries(e_begin)
        builder.grid_spmd(
            lambda store, rank, _n=step: passes[rank][0].h(store, _n),
            name=f"H-shell[{step}]",
        )
        # The last step's H strips feed no one: no epilogue exchange.
        h_begin = (
            builder.begin_exchange_boundaries(*H_COMPONENTS, faces=H_GHOST_FACES)
            if step < steps - 1
            else None
        )
        builder.grid_spmd(
            lambda store, rank, _n=step: passes[rank][1].h(store, _n),
            name=f"H-interior[{step}]",
        )


@dataclass
class ParallelFDTD:
    """Handle to a parallelized FDTD program (both versions)."""

    config: FDTDConfig
    decomp: BlockDecomposition
    builder: MeshProgramBuilder
    version: str
    ntff_config: NTFFConfig | None = None
    ntff_bins: int = 0
    overlap: bool = False

    @property
    def host(self) -> int:
        return self.builder.host

    @property
    def grid_size(self) -> int:
        return self.builder.grid_size

    def run_simulated(self) -> list[AddressSpace]:
        """Run the sequential simulated-parallel version."""
        return self.builder.run_simulated()

    def to_parallel(self) -> System:
        """The mechanical message-passing transform."""
        return self.builder.to_parallel()

    def host_fields(self, stores) -> dict[str, np.ndarray]:
        """The collected global field arrays from a finished run's
        stores (list of AddressSpace or of dicts)."""
        host_store = stores[self.host]
        get = host_store.__getitem__
        return {comp: np.asarray(get(comp)) for comp in COMPONENTS}

    def host_potentials(self, stores) -> tuple[np.ndarray, np.ndarray]:
        """The reduced far-field vector potentials (Version C)."""
        if self.version != "C":
            raise FDTDError("far-field potentials exist only in Version C")
        host_store = stores[self.host]
        return (
            np.asarray(host_store["ffA_total"]),
            np.asarray(host_store["ffF_total"]),
        )


def build_parallel_fdtd(
    config: FDTDConfig,
    pshape: tuple[int, int, int],
    version: str = "A",
    ntff: NTFFConfig | None = None,
    compensated_farfield: bool = False,
    batch_exchanges: bool = False,
    overlap: bool = False,
) -> ParallelFDTD:
    """Parallelize an FDTD configuration over a 3-D process grid.

    ``pshape`` is the process-grid shape (one rank per block, plus a
    host process for I/O and reductions).  The initial stores are
    pre-scattered, and the coefficients are constants: read-only, never
    copied per run.

    ``batch_exchanges`` coalesces each phase's per-component ghost
    exchanges into one combined stage, so a rank sends one message per
    neighbour per phase instead of one per footprint component —
    bitwise-identical results, exactly half the exchange
    messages/frames (two components cross each face per phase).
    Off by default because the communication cost model (and the
    ``stats`` measured-vs-modeled agreement check) counts per-variable
    messages.

    ``compensated_farfield`` enables the "more sophisticated strategy"
    the paper mentions but did not pursue: the far-field partial
    potentials are combined with elementwise compensated (Neumaier)
    summation instead of a plain rank-order fold, making the parallel
    far field accurate to ~1 ulp of the exact double sum and therefore
    nearly independent of the process count.

    ``overlap=True`` selects the compute/communication overlap
    refinement: every update phase is split into a *shell* pass over
    the communication strips and an *interior* pass over the rest, and
    every boundary exchange into a begin (send) and end (receive)
    stage, so the interior sweep runs while the ghost frames are in
    flight.  Per-step stage order::

        recv H ghosts            (from the previous step's send)
        E-shell:    Mur record/update/apply + sources on the strips
        send E strips
        E-interior: Mur record/update/apply + sources elsewhere
        recv E ghosts
        H-shell:    H update on the strips
        send H strips            (skipped on the last step)
        H-interior: H update elsewhere + far-field accumulation

    The E shell is the low-side strips only and the H shell the
    high-side strips only (the sides each phase's one-sided stencil
    reads ghosts on and ships from), half the full shell.  Sends only
    move earlier and receives later relative to the same data
    dependencies, and the passes partition each phase's cells exactly,
    so the results are bitwise identical to ``overlap=False`` on every
    engine.  Overlap always coalesces each phase's components
    into one combined exchange (it subsumes ``batch_exchanges``).
    """
    version = version.upper()
    if version not in ("A", "C"):
        raise FDTDError(f"unknown FDTD version {version!r}")
    if version == "C" and ntff is None:
        ntff = NTFFConfig()

    grid = config.grid
    decomp = BlockDecomposition(grid.node_shape, pshape, ghost=1)
    builder = MeshProgramBuilder(
        decomp, use_host=True, name=f"fdtd-{version}-p{pshape}"
    )

    # ---- declarations (section 4.4 step 1) -------------------------------
    fields0 = config.initial_fields()
    for comp in COMPONENTS:
        builder.declare_distributed(comp, fields0[comp])
    # The coefficients are constants (read-only, never copied per run).
    for name, arr in config.coefficient_set().arrays().items():
        builder.declare_distributed(name, arr)

    # ---- per-rank specialisation (section 4.4 step 2) --------------------
    accumulators = [None] * decomp.nprocs
    nbins = 0
    if version == "C":
        accumulators = [
            NTFFAccumulator(
                grid, ntff, steps=config.steps, restrict=(decomp, r)
            )
            for r in range(decomp.nprocs)
        ]
        nbins = accumulators[0].nbins
        ndirs = len(ntff.directions)
        shape = (ndirs, nbins, 3)
        builder.declare_grid_only("ffA", lambda r, _s=shape: np.zeros(_s))
        builder.declare_grid_only("ffF", lambda r, _s=shape: np.zeros(_s))
    # One scratch per rank: ranks may run concurrently (threaded engine)
    # or in separate processes (scratch crosses empty and refills there);
    # either way the steady-state step loop allocates no temporaries.
    passes = [
        rank_passes(config, decomp, r, accumulators[r], overlap)
        for r in range(decomp.nprocs)
    ]

    # ---- the time loop (section 4.4 step 3-4) ----------------------------
    if overlap:
        _overlap_time_loop(builder, config.steps, passes)
    else:
        for step in range(config.steps):
            builder.exchange_boundaries(
                *H_COMPONENTS, faces=H_GHOST_FACES, batch=batch_exchanges
            )
            builder.grid_spmd(
                lambda store, rank, _n=step: passes[rank][0].e(store, _n),
                name=f"E-phase[{step}]",
            )
            builder.exchange_boundaries(
                *E_COMPONENTS, faces=E_GHOST_FACES, batch=batch_exchanges
            )
            builder.grid_spmd(
                lambda store, rank, _n=step: passes[rank][0].h(store, _n),
                name=f"H-phase[{step}]",
            )

    # ---- epilogue: reductions and collection ------------------------------
    if version == "C":
        mode = "kahan" if compensated_farfield else "fold"
        ff_op = None if compensated_farfield else np.add
        builder.reduce(
            "ffA",
            "ffA_total",
            example=np.zeros((ndirs, nbins, 3)),
            op=ff_op,
            mode=mode,
        )
        builder.reduce(
            "ffF",
            "ffF_total",
            example=np.zeros((ndirs, nbins, 3)),
            op=ff_op,
            mode=mode,
        )
    builder.collect(*COMPONENTS)

    return ParallelFDTD(
        config=config,
        decomp=decomp,
        builder=builder,
        version=version,
        ntff_config=ntff,
        ntff_bins=nbins,
        overlap=overlap,
    )
