"""Block decomposition of N-dimensional grids onto process grids.

The mesh archetype's data-distribution scheme (paper section 4.2)
partitions the data grid into "regular contiguous subgrids (local
sections)" distributed among processes.  This module provides:

* :func:`choose_process_grid` — pick a process-grid shape for P
  processes over a given data grid, minimising communication surface;
* :class:`ProcessGrid` — rank <-> Cartesian-coordinate mapping and
  (non-periodic) neighbour lookup;
* :class:`BlockDecomposition` — the index arithmetic: which global
  indices each rank owns, the shape of its ghosted local array, and
  the translation between global and local index spaces.

Conventions:

* block distribution along each axis: with extent ``n`` over ``p``
  parts, part ``k`` has size ``n//p + (1 if k < n%p else 0)`` and
  starts at ``k*(n//p) + min(k, n%p)`` — sizes differ by at most one;
* every rank's local array is its owned block surrounded by ``ghost``
  cells on *every* side (including physical boundaries, where the ghost
  ring holds boundary-condition data rather than neighbour copies) —
  uniform shape arithmetic, exactly how the Fortran mesh archetype
  skeleton lays out its arrays;
* ranks are C-order (last axis fastest) over the process grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.util import product

__all__ = [
    "choose_process_grid",
    "factorizations",
    "ProcessGrid",
    "BlockDecomposition",
    "block_bounds",
]


def block_bounds(n: int, p: int, k: int) -> tuple[int, int]:
    """Global [start, stop) of part ``k`` of ``n`` items over ``p`` parts."""
    if not 0 <= k < p:
        raise DecompositionError(f"part index {k} out of range for {p} parts")
    if n < p:
        raise DecompositionError(
            f"cannot distribute extent {n} over {p} parts with non-empty "
            "local sections"
        )
    base, rem = divmod(n, p)
    start = k * base + min(k, rem)
    stop = start + base + (1 if k < rem else 0)
    return start, stop


def factorizations(n: int, ndim: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of ``n`` into ``ndim`` positive factors."""
    if ndim == 1:
        return [(n,)]
    out = []
    for first in range(1, n + 1):
        if n % first == 0:
            for rest in factorizations(n // first, ndim - 1):
                out.append((first, *rest))
    return out


def choose_process_grid(
    nprocs: int, grid_shape: tuple[int, ...]
) -> tuple[int, ...]:
    """Process-grid shape for ``nprocs`` over ``grid_shape`` minimising
    the total boundary surface exchanged per sweep.

    For each candidate factorization, the cost is the number of grid
    points on inter-process faces:
    ``sum_over_axes (p_j - 1) * (grid volume / n_j)``.
    Ties break toward the most balanced (lexicographically smallest
    sorted-descending) shape, for determinism.
    """
    ndim = len(grid_shape)
    volume = product(grid_shape)
    best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
    for shape in factorizations(nprocs, ndim):
        if any(p > n for p, n in zip(shape, grid_shape)):
            continue
        cost = sum(
            (p - 1) * (volume // n) for p, n in zip(shape, grid_shape)
        )
        key = (cost, tuple(sorted(shape, reverse=True)), shape)
        if best is None or key < best:
            best = key
    if best is None:
        raise DecompositionError(
            f"no factorization of {nprocs} processes fits grid {grid_shape}"
        )
    return best[2]


@dataclass(frozen=True)
class ProcessGrid:
    """A Cartesian grid of process ranks (C-order, non-periodic)."""

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shape or any(p < 1 for p in self.shape):
            raise DecompositionError(f"invalid process grid shape {self.shape}")

    @property
    def nprocs(self) -> int:
        return product(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Cartesian coordinates of ``rank``."""
        if not 0 <= rank < self.nprocs:
            raise DecompositionError(
                f"rank {rank} out of range for {self.nprocs} processes"
            )
        return tuple(int(c) for c in np.unravel_index(rank, self.shape))

    def rank(self, coords: tuple[int, ...]) -> int:
        """Rank at Cartesian ``coords``."""
        if len(coords) != self.ndim or any(
            not 0 <= c < p for c, p in zip(coords, self.shape)
        ):
            raise DecompositionError(
                f"coords {coords} outside process grid {self.shape}"
            )
        return int(np.ravel_multi_index(coords, self.shape))

    def neighbor(self, rank: int, axis: int, direction: int) -> int | None:
        """Neighbouring rank one step along ``axis`` (``direction`` is
        -1 or +1); ``None`` at the physical boundary (non-periodic)."""
        if direction not in (-1, 1):
            raise DecompositionError(f"direction must be +-1, got {direction}")
        coords = list(self.coords(rank))
        coords[axis] += direction
        if not 0 <= coords[axis] < self.shape[axis]:
            return None
        return self.rank(tuple(coords))


class BlockDecomposition:
    """Block decomposition of one data grid over one process grid."""

    def __init__(
        self,
        grid_shape: tuple[int, ...],
        pgrid: ProcessGrid | tuple[int, ...],
        ghost: int = 1,
    ):
        if isinstance(pgrid, tuple):
            pgrid = ProcessGrid(pgrid)
        if len(grid_shape) != pgrid.ndim:
            raise DecompositionError(
                f"grid {grid_shape} and process grid {pgrid.shape} have "
                "different dimensionality"
            )
        if ghost < 0:
            raise DecompositionError(f"ghost width must be >= 0, got {ghost}")
        # Validate every axis admits non-empty blocks; also require each
        # local extent >= ghost so a face exchange is well-defined.
        for n, p in zip(grid_shape, pgrid.shape):
            if n < p:
                raise DecompositionError(
                    f"axis extent {n} < process count {p}"
                )
            if ghost > 0 and (n // p) < ghost:
                raise DecompositionError(
                    f"smallest block ({n // p}) thinner than ghost width "
                    f"({ghost}); boundary exchange would be ill-defined"
                )
        self.grid_shape = tuple(grid_shape)
        self.pgrid = pgrid
        self.ghost = ghost

    # -- basic facts -------------------------------------------------------------

    @property
    def nprocs(self) -> int:
        return self.pgrid.nprocs

    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    def owned_bounds(self, rank: int) -> list[tuple[int, int]]:
        """Per-axis global [start, stop) owned by ``rank``."""
        coords = self.pgrid.coords(rank)
        return [
            block_bounds(n, p, c)
            for n, p, c in zip(self.grid_shape, self.pgrid.shape, coords)
        ]

    def owned_slices(self, rank: int) -> tuple[slice, ...]:
        """Slices into the *global* array selecting ``rank``'s block."""
        return tuple(slice(a, b) for a, b in self.owned_bounds(rank))

    def owned_shape(self, rank: int) -> tuple[int, ...]:
        return tuple(b - a for a, b in self.owned_bounds(rank))

    def local_shape(self, rank: int) -> tuple[int, ...]:
        """Shape of the ghosted local array."""
        g = self.ghost
        return tuple(s + 2 * g for s in self.owned_shape(rank))

    def interior_slices(self, rank: int) -> tuple[slice, ...]:
        """Slices into the *local* (ghosted) array selecting the owned
        region."""
        g = self.ghost
        return tuple(slice(g, g + s) for s in self.owned_shape(rank))

    # -- sanity / coverage --------------------------------------------------------------

    def verify_partition(self) -> None:
        """Assert the blocks exactly tile the grid (disjoint cover).

        O(grid volume) — used by tests and by callers that want a belt
        with their braces; the index arithmetic makes it true by
        construction."""
        cover = np.zeros(self.grid_shape, dtype=np.int32)
        for rank in range(self.nprocs):
            cover[self.owned_slices(rank)] += 1
        if not np.all(cover == 1):
            raise DecompositionError(
                "blocks do not exactly tile the grid "
                f"(min cover {cover.min()}, max {cover.max()})"
            )

    def describe(self) -> str:
        lines = [
            f"block decomposition: grid {self.grid_shape} over process "
            f"grid {self.pgrid.shape}, ghost={self.ghost}"
        ]
        for rank in range(self.nprocs):
            bounds = self.owned_bounds(rank)
            spans = " x ".join(f"[{a},{b})" for a, b in bounds)
            lines.append(
                f"  rank {rank} {self.pgrid.coords(rank)}: {spans} "
                f"local {self.local_shape(rank)}"
            )
        return "\n".join(lines)

    def all_faces(self) -> list[tuple[int, int, int, int]]:
        """All inter-process faces as ``(rank, axis, direction, neighbor)``
        tuples (each face appears twice, once per side)."""
        out = []
        for rank in range(self.nprocs):
            for axis in range(self.ndim):
                for direction in (-1, 1):
                    nb = self.pgrid.neighbor(rank, axis, direction)
                    if nb is not None:
                        out.append((rank, axis, direction, nb))
        return out
