"""Scatter / gather between global arrays and ghosted local sections.

These are *sequential* helpers: they build the per-rank ghosted local
arrays from a global array and reassemble a global array from local
sections.  They serve three masters:

* constructing initial stores for simulated-parallel programs and for
  transformed process systems;
* the reference implementations the host-redistribution exchange
  (:mod:`~repro.archetypes.mesh.gio`) is tested against;
* result assembly when comparing a parallel run's distributed fields
  against the sequential code's global fields (bitwise, per the
  methodology).
"""

from __future__ import annotations

import numpy as np

from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.errors import DecompositionError

__all__ = ["scatter_array", "gather_array", "local_like"]


def local_like(
    decomp: BlockDecomposition, rank: int, dtype=np.float64, fill: float = 0.0
) -> np.ndarray:
    """A fresh ghosted local array for ``rank`` (ghost cells included)."""
    return np.full(decomp.local_shape(rank), fill, dtype=dtype)


def scatter_array(
    decomp: BlockDecomposition,
    global_array: np.ndarray,
    fill_ghosts: bool = False,
) -> list[np.ndarray]:
    """Split a global array into ghosted local arrays, one per rank.

    Ghost cells are zero unless ``fill_ghosts`` is set, in which case
    interior ghosts are filled from the global array (as a completed
    boundary exchange would leave them); ghosts beyond the physical
    boundary always stay zero.
    """
    if tuple(global_array.shape) != decomp.grid_shape:
        raise DecompositionError(
            f"global array shape {global_array.shape} != grid "
            f"{decomp.grid_shape}"
        )
    locals_: list[np.ndarray] = []
    g = decomp.ghost
    for rank in range(decomp.nprocs):
        local = local_like(decomp, rank, dtype=global_array.dtype)
        local[decomp.interior_slices(rank)] = global_array[
            decomp.owned_slices(rank)
        ]
        if fill_ghosts and g > 0:
            bounds = decomp.owned_bounds(rank)
            # Source region in global coordinates: the owned block
            # extended by up to ``g`` cells wherever the grid allows.
            src = tuple(
                slice(max(a - g, 0), min(b + g, n))
                for (a, b), n in zip(bounds, decomp.grid_shape)
            )
            # Matching destination region in the local array.
            dst = tuple(
                slice(g - (a - max(a - g, 0)), g + (b - a) + (min(b + g, n) - b))
                for (a, b), n in zip(bounds, decomp.grid_shape)
            )
            local[dst] = global_array[src]
        locals_.append(local)
    return locals_


def gather_array(
    decomp: BlockDecomposition, locals_: list[np.ndarray]
) -> np.ndarray:
    """Reassemble a global array from ghosted local arrays."""
    if len(locals_) != decomp.nprocs:
        raise DecompositionError(
            f"expected {decomp.nprocs} local arrays, got {len(locals_)}"
        )
    out = np.zeros(decomp.grid_shape, dtype=locals_[0].dtype)
    for rank, local in enumerate(locals_):
        expected = decomp.local_shape(rank)
        if tuple(local.shape) != expected:
            raise DecompositionError(
                f"rank {rank} local array shape {local.shape} != {expected}"
            )
        out[decomp.owned_slices(rank)] = local[decomp.interior_slices(rank)]
    return out
