"""The divide-and-conquer archetype.

The paper's own example of a *sequential* programming archetype is "the
familiar divide-and-conquer paradigm" (section 2.1); this module
develops its parallel counterpart, as the future-work programme asks
("identifying and developing additional archetypes").

* **computational pattern** — a problem solved by recursive splitting:
  ``solve(x) = merge(solve(left(x)), solve(right(x)))`` down to a base
  case;
* **parallelization strategy** — a fork-join binary tree over
  ``P = 2^k`` processes: at tree level ``l``, each active process
  splits its subproblem, keeps the left half and ships the right half
  to its partner (``rank + P / 2^(l+1)``); after ``k`` levels every
  process solves a leaf subproblem locally; results merge back up the
  same tree;
* **transformations** — :class:`DivideConquerBuilder` emits the
  simulated-parallel form: an alternating sequence of split blocks and
  *downsweep* exchanges, one solve block, then *upsweep* exchanges and
  merge blocks; result shapes at every level are inferred by a dry run
  on zero-filled dummies at build time, so all exchange regions are
  statically checkable;
* **a property worth noticing** — unlike the mesh reduction, the
  parallel merge tree has exactly the same combining *shape* as the
  sequential recursion, so divide-and-conquer reductions are bitwise
  reproducible even for non-associative floating-point merges: the
  archetype that avoids the paper's far-field pitfall by construction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.archetypes.base import Archetype, ArchetypeOperation, register_archetype
from repro.errors import ArchetypeError
from repro.refinement.dataexchange import DataExchange, VarRef
from repro.refinement.program import LocalBlock, SimulatedParallelProgram
from repro.refinement.store import AddressSpace
from repro.refinement.transform import to_parallel_system
from repro.runtime.system import System

__all__ = [
    "DC_ARCHETYPE",
    "DivideConquerBuilder",
    "sequential_divide_conquer",
]

SolveFn = Callable[[np.ndarray], np.ndarray]
MergeFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

DC_ARCHETYPE = register_archetype(
    Archetype(
        name="divide-conquer",
        description=(
            "recursive problem splitting over a fork-join binary process "
            "tree: split down, solve leaves concurrently, merge up"
        ),
        operations=[
            ArchetypeOperation(
                "split", "local", "halve the current subproblem"
            ),
            ArchetypeOperation(
                "fork",
                "exchange",
                "ship the right half to the partner one tree level down",
            ),
            ArchetypeOperation(
                "solve", "local", "solve a leaf subproblem"
            ),
            ArchetypeOperation(
                "join",
                "exchange",
                "return the partner's result one tree level up",
            ),
            ArchetypeOperation(
                "merge", "local", "combine two child results"
            ),
        ],
        guidelines=(
            "divide-and-conquer archetype guidelines:\n"
            "1. The problem must split into halves of predictable shape\n"
            "   (P = 2^k processes; leaf size = n / P).\n"
            "2. solve and merge must be pure and deterministic; the\n"
            "   parallel merge tree then reproduces the sequential\n"
            "   recursion bit for bit, non-associative floats included.\n"
            "3. Downsweep: level l actives split and send right halves\n"
            "   to rank + P/2^(l+1); upsweep mirrors it."
        ),
    )
)


def sequential_divide_conquer(
    problem: np.ndarray,
    solve: SolveFn,
    merge: MergeFn,
    leaf_size: int,
) -> np.ndarray:
    """The original sequential program: the recursion itself."""
    problem = np.asarray(problem, dtype=np.float64)
    if len(problem) <= leaf_size:
        return np.asarray(solve(problem.copy()), dtype=np.float64)
    mid = len(problem) // 2
    left = sequential_divide_conquer(problem[:mid], solve, merge, leaf_size)
    right = sequential_divide_conquer(problem[mid:], solve, merge, leaf_size)
    return np.asarray(merge(left, right), dtype=np.float64)


class DivideConquerBuilder:
    """Build the simulated-parallel fork-join tree for ``P = 2^k``.

    Parameters
    ----------
    problem:
        1-D float array whose length is divisible by ``nprocs``.
    solve, merge:
        The leaf solver and the combiner; pure and deterministic.
    nprocs:
        A power of two.
    """

    def __init__(
        self,
        problem: np.ndarray,
        solve: SolveFn,
        merge: MergeFn,
        nprocs: int,
        name: str = "divide-conquer",
    ):
        problem = np.asarray(problem, dtype=np.float64)
        if problem.ndim != 1 or len(problem) == 0:
            raise ArchetypeError("problem must be a non-empty 1-D array")
        if nprocs < 1 or (nprocs & (nprocs - 1)) != 0:
            raise ArchetypeError(
                f"nprocs must be a power of two, got {nprocs}"
            )
        if len(problem) % nprocs != 0:
            raise ArchetypeError(
                f"problem length {len(problem)} not divisible by {nprocs}"
            )
        self.problem = problem
        self.solve = solve
        self.merge = merge
        self.nprocs = nprocs
        self.levels = int(np.log2(nprocs))
        self.name = name
        self.leaf_size = len(problem) // nprocs

        # Dry-run shape inference for the upsweep: result shape per level.
        dummy = np.zeros(self.leaf_size)
        shapes: list[tuple[int, ...]] = []
        value = np.asarray(self.solve(dummy), dtype=np.float64)
        shapes.append(value.shape)  # level k (leaves)
        for _ in range(self.levels):
            value = np.asarray(self.merge(value, value.copy()), dtype=np.float64)
            shapes.append(value.shape)
        # shapes[j] = result shape after j merges above the leaves.
        self._up_shapes = shapes

    # -- rank/tree helpers -------------------------------------------------------

    def _active(self, level: int) -> list[int]:
        """Ranks holding a subproblem at tree level ``level`` (0 = root)."""
        stride = self.nprocs >> level
        return list(range(0, self.nprocs, stride))

    def _partner(self, rank: int, level: int) -> int:
        """The rank receiving the right half at downsweep level ``level``."""
        return rank + (self.nprocs >> (level + 1))

    def _down_len(self, level: int) -> int:
        return len(self.problem) >> level

    def _up_shape(self, level: int) -> tuple[int, ...]:
        """Result shape held by a level-``level`` subtree root."""
        return self._up_shapes[self.levels - level]

    # -- stores ---------------------------------------------------------------

    def initial_stores(self) -> list[dict]:
        stores: list[dict] = [{} for _ in range(self.nprocs)]
        for rank in range(self.nprocs):
            store = stores[rank]
            for level in range(self.levels + 1):
                if rank in self._active(level):
                    store[f"down{level}"] = (
                        self.problem.copy()
                        if level == 0 and rank == 0
                        else np.zeros(self._down_len(level))
                    )
            for level in range(self.levels, -1, -1):
                if rank in self._active(level):
                    store[f"up{level}"] = np.zeros(self._up_shape(level))
            # receive buffer per upsweep level where this rank merges
            for level in range(self.levels):
                if rank in self._active(level):
                    store[f"join{level}"] = np.zeros(self._up_shape(level + 1))
        return stores

    # -- the program ------------------------------------------------------------

    def build(self) -> SimulatedParallelProgram:
        prog = SimulatedParallelProgram(self.nprocs, name=self.name)
        k = self.levels

        # Downsweep: split + fork per level.
        for level in range(k):
            actives = self._active(level)
            half = self._down_len(level) // 2

            def make_split(level=level, half=half):
                def split(store: AddressSpace) -> None:
                    current = store[f"down{level}"]
                    store[f"down{level + 1}"][...] = current[:half]

                return split

            prog.stages.append(
                LocalBlock(
                    {r: make_split() for r in actives}, name=f"split{level}"
                )
            )
            fork = DataExchange(
                name=f"fork{level}",
                participants=frozenset(
                    self._partner(r, level) for r in actives
                ),
            )
            for r in actives:
                fork.assign(
                    VarRef(self._partner(r, level), f"down{level + 1}"),
                    VarRef(r, f"down{level}", (slice(half, 2 * half),)),
                )
            prog.stages.append(fork)

        # Leaves: everyone solves.
        def make_solve():
            solve = self.solve

            def run(store: AddressSpace) -> None:
                result = np.asarray(
                    solve(store[f"down{k}"].copy()), dtype=np.float64
                )
                store[f"up{k}"][...] = result

            return run

        prog.stages.append(
            LocalBlock(
                {r: make_solve() for r in range(self.nprocs)}, name="solve"
            )
        )

        # Upsweep: join + merge per level, mirrored.
        for level in range(k - 1, -1, -1):
            actives = self._active(level)
            join = DataExchange(
                name=f"join{level}", participants=frozenset(actives)
            )
            for r in actives:
                join.assign(
                    VarRef(r, f"join{level}"),
                    VarRef(self._partner(r, level), f"up{level + 1}"),
                )
            prog.stages.append(join)

            def make_merge(level=level):
                merge = self.merge

                def run(store: AddressSpace) -> None:
                    combined = np.asarray(
                        merge(
                            store[f"up{level + 1}"].copy(),
                            store[f"join{level}"].copy(),
                        ),
                        dtype=np.float64,
                    )
                    store[f"up{level}"][...] = combined

                return run

            prog.stages.append(
                LocalBlock(
                    {r: make_merge() for r in actives}, name=f"merge{level}"
                )
            )
        return prog

    # -- execution ---------------------------------------------------------------

    def sequential_reference(self) -> np.ndarray:
        return sequential_divide_conquer(
            self.problem, self.solve, self.merge, self.leaf_size
        )

    def run_simulated(self) -> np.ndarray:
        stores = [
            AddressSpace(s, owner=i)
            for i, s in enumerate(self.initial_stores())
        ]
        self.build().run(stores=stores)
        return np.asarray(stores[0]["up0"])

    def to_parallel(self) -> System:
        return to_parallel_system(
            self.build(), initial_stores=self.initial_stores()
        )
