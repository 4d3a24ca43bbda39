"""The mesh-archetype code skeleton.

The Fortran mesh archetype the paper used shipped "a code skeleton and
an archetype-specific library of communication routines"; applications
dropped their local computations into the skeleton and called the
library for every exchange.  :class:`MeshProgramBuilder` is that
skeleton: callers declare their variables (distributed / duplicated /
host-only / grid-only), append stages (grid computation, host blocks,
boundary exchanges, host redistribution, reductions), and obtain

* the **sequential simulated-parallel program**
  (:meth:`MeshProgramBuilder.build`), runnable and debuggable
  sequentially, and
* its mechanical **message-passing version**
  (:meth:`MeshProgramBuilder.to_parallel`),

with all the data-exchange restrictions checked on the way.

Process layout (see :mod:`~repro.archetypes.mesh.gio`): grid processes
are partitions ``0..G-1`` (decomposition ranks), the optional host is
partition ``G``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.archetypes.mesh.distributed_grid import scatter_array
from repro.archetypes.mesh.exchange import (
    boundary_exchange_multi_op,
    boundary_exchange_ops_with_corners,
    boundary_exchange_split,
    check_faces,
)
from repro.archetypes.mesh.gio import collect_stage, distribute_stage
from repro.archetypes.mesh.reduction import (
    broadcast_stage,
    combine_block,
    gather_stage,
    partials_buffer,
)
from repro.errors import ArchetypeError
from repro.refinement.program import LocalBlock, SimulatedParallelProgram
from repro.refinement.store import AddressSpace
from repro.refinement.transform import to_parallel_system
from repro.runtime.system import System
from repro.util import copy_unless_constant, is_constant

__all__ = ["MeshProgramBuilder"]


class _Decl:
    """One variable declaration: how each partition initialises it."""

    def __init__(self, kind: str, payload: Any):
        self.kind = kind  # distributed | duplicated | host_only | grid_only
        self.payload = payload


class MeshProgramBuilder:
    """Declarative builder for mesh-archetype simulated programs."""

    def __init__(
        self,
        decomp: BlockDecomposition,
        use_host: bool = True,
        name: str = "mesh-program",
    ):
        self.decomp = decomp
        self.grid_size = decomp.nprocs
        self.host: int | None = self.grid_size if use_host else None
        self.nprocs = self.grid_size + (1 if use_host else 0)
        self.name = name
        self._decls: dict[str, _Decl] = {}
        self._stages: list = []
        #: end halves of split exchanges awaiting end_exchange_boundaries
        self._pending_ends: dict[int, Any] = {}

    # -- declarations ---------------------------------------------------------------

    def _declare(self, name: str, decl: _Decl) -> None:
        if name in self._decls:
            raise ArchetypeError(f"variable {name!r} declared twice")
        self._decls[name] = decl

    def declare_distributed(
        self, name: str, global_init: np.ndarray | None = None
    ) -> "MeshProgramBuilder":
        """A distributed (ghosted) grid array.

        Grid rank ``r`` holds the ghosted local section; the host (when
        present) holds the global array.  ``global_init`` defaults to
        zeros over the decomposition's grid shape.

        A *read-only* ``global_init`` declares a constant
        (:func:`repro.util.is_constant`; section 4.4 step 1's "never
        assigned again"): every rank's section is read-only too, the
        host holds the global itself rather than a copy, and no engine
        copies any of it per run.  A stage that would assign it
        (distribute, collect, boundary exchange, reduction result) is
        refused when it is appended.
        """
        if global_init is None:
            global_init = np.zeros(self.decomp.grid_shape)
        elif tuple(global_init.shape) != self.decomp.grid_shape:
            raise ArchetypeError(
                f"{name!r}: global init shape {global_init.shape} != grid "
                f"{self.decomp.grid_shape}"
            )
        self._declare(name, _Decl("distributed", np.asarray(global_init)))
        return self

    def declare_duplicated(self, name: str, value: Any) -> "MeshProgramBuilder":
        """A duplicated variable: every partition (host included) holds a
        synchronised copy."""
        self._declare(name, _Decl("duplicated", value))
        return self

    def declare_host_only(self, name: str, value: Any) -> "MeshProgramBuilder":
        if self.host is None:
            raise ArchetypeError("no host process in this layout")
        self._declare(name, _Decl("host_only", value))
        return self

    def declare_grid_only(
        self, name: str, value: Any | Callable[[int], Any]
    ) -> "MeshProgramBuilder":
        """A grid-process scratch variable; ``value`` may be a factory
        ``rank -> value`` for per-rank shapes."""
        self._declare(name, _Decl("grid_only", value))
        return self

    def _grid_only_value(self, name: str, rank: int) -> Any:
        decl = self._decls[name]
        value = decl.payload
        return value(rank) if callable(value) else copy_unless_constant(value)

    # -- stages ---------------------------------------------------------------

    def grid_spmd(
        self, fn: Callable[[AddressSpace, int], None], name: str = ""
    ) -> "MeshProgramBuilder":
        """A local block running ``fn(store, grid_rank)`` on every grid
        process (host idle)."""

        def bind(rank: int):
            def bound(store, _fn=fn, _rank=rank):
                _fn(store, _rank)

            return bound

        fns = {r: bind(r) for r in range(self.grid_size)}
        self._stages.append(LocalBlock(fns, name or f"grid{len(self._stages)}"))
        return self

    def host_block(
        self, fn: Callable[[AddressSpace], None], name: str = ""
    ) -> "MeshProgramBuilder":
        """A local block running only on the host."""
        if self.host is None:
            raise ArchetypeError("no host process in this layout")
        self._stages.append(
            LocalBlock({self.host: fn}, name or f"host{len(self._stages)}")
        )
        return self

    def exchange_boundaries(
        self,
        *variables: str,
        corners: bool = False,
        batch: bool = False,
        faces=None,
    ) -> "MeshProgramBuilder":
        """Boundary-exchange stages for one or more distributed arrays.

        ``corners=True`` uses the dimension-ordered corner-filling
        variant (one exchange per axis) required by deep-ghost
        redundant computation; the default face-only exchange suffices
        for face-stencil sweeps.

        ``batch=True`` emits one *combined* exchange stage for all the
        variables instead of one stage per variable: same assignments,
        same values, but the refined message-passing form coalesces a
        rank's per-face sends to each neighbour into a single message
        (and wire frame).  Per-variable message counts change, so the
        communication cost model and ``stats`` agreement checks assume
        the unbatched form; batching is opt-in for throughput runs.
        Ignored for ``corners=True`` (the corner variant needs its
        per-axis ordering).

        ``faces`` is the ghost-read footprint of the local block that
        follows — a set of ``(variable, axis, side)`` ghost faces — and
        only those faces are exchanged; ``None`` exchanges every face.
        It cannot be combined with ``corners=True``: the corner variant
        relies on every earlier-axis ghost having been filled.
        """
        if corners and faces is not None:
            raise ArchetypeError(
                "exchange_boundaries: faces= cannot be combined with "
                "corners=True (the corner-filling exchange needs every face)"
            )
        for var in variables:
            self._check_target(var, "distributed")
        if corners:
            for var in variables:
                self._stages.extend(
                    boundary_exchange_ops_with_corners(self.decomp, var)
                )
            return self
        check_faces(self.decomp, variables, faces)
        groups = [variables] if batch else [(var,) for var in variables]
        for group in groups:
            op = boundary_exchange_multi_op(self.decomp, group, faces=faces)
            if op.assignments:
                self._stages.append(op)
        return self

    def begin_exchange_boundaries(self, *variables: str, faces=None):
        """The *begin* half of a split (overlapped) boundary exchange.

        Emits the send side of one combined exchange for ``variables``
        (restricted to ``faces`` as in :meth:`exchange_boundaries`)
        and returns a handle for :meth:`end_exchange_boundaries`.  The
        stages appended between begin and end run while the ghost
        frames are in flight; they must not touch the exchanged strips
        or ghosts (the shell/interior split of
        :func:`repro.apps.fdtd.update.split_local_update_regions`
        guarantees this for mesh sweeps).  Returns ``None`` when the
        decomposition has no inter-rank faces; pass it to
        :meth:`end_exchange_boundaries` anyway — both halves skip
        uniformly, and the program degenerates to the unsplit form.
        """
        for var in variables:
            self._check_target(var, "distributed")
        check_faces(self.decomp, variables, faces)
        begin, end = boundary_exchange_split(
            self.decomp, variables, faces=faces
        )
        if begin is None:
            return None
        self._stages.append(begin)
        self._pending_ends[id(begin)] = end
        return begin

    def end_exchange_boundaries(self, begin) -> "MeshProgramBuilder":
        """The *end* half of a split boundary exchange: receive into the
        ghost strips.  ``begin`` is the handle from
        :meth:`begin_exchange_boundaries` (``None`` is a no-op)."""
        if begin is None:
            return self
        end = self._pending_ends.pop(id(begin), None)
        if end is None:
            raise ArchetypeError(
                "end_exchange_boundaries: unknown or already-ended begin "
                f"handle {begin.name!r}"
            )
        self._stages.append(end)
        return self

    def distribute(self, *variables: str) -> "MeshProgramBuilder":
        """Host -> grid redistribution of distributed arrays."""
        self._need_host()
        for var in variables:
            self._check_target(var, "distributed")
            self._stages.append(distribute_stage(self.decomp, var, self.host))
        return self

    def collect(self, *variables: str) -> "MeshProgramBuilder":
        """Grid -> host redistribution of distributed arrays."""
        self._need_host()
        for var in variables:
            self._check_target(var, "distributed")
            self._stages.append(collect_stage(self.decomp, var, self.host))
        return self

    def read_file(self, var: str, path) -> "MeshProgramBuilder":
        """Archetype file *input*: "the host process read[s] the data
        from the file and then redistribute[s] it to the other (grid)
        processes" (paper §4.2).

        The host block loads a ``.npy`` file into its global copy of
        ``var``; a distribute stage then scatters it.  The file is read
        at *run* time (each execution re-reads it), so the same built
        program can process different inputs.
        """
        self._need_host()
        self._check_target(var, "distributed")
        path = str(path)
        shape = self.decomp.grid_shape

        def load(store: AddressSpace, _p=path, _v=var, _s=shape) -> None:
            data = np.load(_p)
            if tuple(data.shape) != _s:
                raise ArchetypeError(
                    f"file {_p!r} holds shape {data.shape}, grid is {_s}"
                )
            store.write_region(_v, None, data.astype(np.float64))

        self.host_block(load, name=f"read:{var}")
        return self.distribute(var)

    def write_file(self, var: str, path) -> "MeshProgramBuilder":
        """Archetype file *output*: "the data [is] first ... redistributed
        from the grid processes to the host process and then written to
        the file" (paper §4.2).  Collect stage, then a host block saving
        the global array as ``.npy``."""
        self._need_host()
        self._check_kind(var, "distributed")
        self.collect(var)
        path = str(path)

        def save(store: AddressSpace, _p=path, _v=var) -> None:
            np.save(_p, np.asarray(store[_v]))

        return self.host_block(save, name=f"write:{var}")

    def broadcast_global(self, src_var: str, dst_var: str) -> "MeshProgramBuilder":
        """Broadcast a host/root variable into every grid process —
        the archetype's 'broadcast of global data' (copy-consistency
        re-establishment for duplicated variables)."""
        root = self.host if self.host is not None else 0
        self._check_target(dst_var)
        self._stages.append(
            broadcast_stage(range(self.grid_size), src_var, dst_var, root)
        )
        return self

    def reduce(
        self,
        src_var: str,
        result_var: str,
        example: Any,
        op: Callable[[Any, Any], Any] | None = None,
        broadcast_to: str | None = None,
        mode: str = "fold",
    ) -> "MeshProgramBuilder":
        """Reduction of a per-grid-rank partial into the root.

        ``src_var`` must be declared on grid ranks; ``example`` is a
        prototype of one partial (its shape sizes the gather buffer).
        The buffer and ``result_var`` are auto-declared on the root;
        ``broadcast_to``, when given, is auto-declared on grid ranks and
        receives the combined value everywhere.
        """
        root = self.host if self.host is not None else 0
        for target in (result_var, broadcast_to):
            self._check_target(target)
        # Keyed by the result variable: the same source may be reduced
        # many times (e.g. a periodic convergence check).
        buf_var = f"_redbuf_{result_var}"
        buf_init = partials_buffer(self.grid_size, example)
        result_init = np.zeros_like(np.asarray(example, dtype=np.float64))
        if self.host is not None:
            self._declare(buf_var, _Decl("host_only", buf_init))
            if result_var not in self._decls:
                self._declare(result_var, _Decl("host_only", result_init))
        else:
            # Root is grid rank 0: declare per-rank (rank 0 real, others
            # tiny placeholders so stores stay uniform).
            self._declare(
                buf_var,
                _Decl(
                    "grid_only",
                    lambda r, _b=buf_init: _b.copy() if r == 0 else np.zeros(0),
                ),
            )
            if result_var not in self._decls:
                self._declare(
                    result_var,
                    _Decl(
                        "grid_only",
                        lambda r, _z=result_init: _z.copy(),
                    ),
                )
        self._stages.append(
            gather_stage(range(self.grid_size), src_var, buf_var, root)
        )
        self._stages.append(
            combine_block(
                buf_var, result_var, self.grid_size, root, op, mode=mode
            )
        )
        if broadcast_to is not None:
            if broadcast_to not in self._decls:
                self._declare(
                    broadcast_to,
                    _Decl("grid_only", lambda r, _z=result_init: _z.copy()),
                )
            self._stages.append(
                broadcast_stage(
                    range(self.grid_size), result_var, broadcast_to, root
                )
            )
        return self

    # -- outputs ---------------------------------------------------------------

    def initial_stores(self) -> list[dict[str, Any]]:
        """Per-partition initial stores from the declarations."""
        stores: list[dict[str, Any]] = [{} for _ in range(self.nprocs)]
        for name, decl in self._decls.items():
            if decl.kind == "distributed":
                locals_ = scatter_array(self.decomp, decl.payload)
                for rank in range(self.grid_size):
                    # A constant's sections are constants.
                    locals_[rank].flags.writeable = decl.payload.flags.writeable
                    stores[rank][name] = locals_[rank]
                if self.host is not None:
                    stores[self.host][name] = copy_unless_constant(decl.payload)
            elif decl.kind == "duplicated":
                for rank in range(self.nprocs):
                    stores[rank][name] = copy_unless_constant(decl.payload)
            elif decl.kind == "host_only":
                stores[self.host][name] = copy_unless_constant(decl.payload)
            elif decl.kind == "grid_only":
                for rank in range(self.grid_size):
                    stores[rank][name] = self._grid_only_value(name, rank)
        return stores

    def build(self) -> SimulatedParallelProgram:
        """The simulated-parallel program (validated)."""
        program = SimulatedParallelProgram(
            self.nprocs, list(self._stages), name=self.name
        )
        program.validate()
        return program

    def run_simulated(self) -> list[AddressSpace]:
        """Build and run the simulated-parallel program sequentially."""
        stores = [
            AddressSpace(s, owner=i)
            for i, s in enumerate(self.initial_stores())
        ]
        return self.build().run(stores=stores)

    def to_parallel(self) -> System:
        """Build and mechanically transform to a process system."""
        return to_parallel_system(
            self.build(), initial_stores=self.initial_stores()
        )

    # -- internals ---------------------------------------------------------------

    def _need_host(self) -> None:
        if self.host is None:
            raise ArchetypeError(
                "this layout has no host process; redistribution stages "
                "need one (use use_host=True)"
            )

    def _check_kind(self, var: str, kind: str) -> None:
        decl = self._decls.get(var)
        if decl is None:
            raise ArchetypeError(f"variable {var!r} not declared")
        if decl.kind != kind:
            raise ArchetypeError(
                f"variable {var!r} is {decl.kind}, stage needs {kind}"
            )

    def _check_target(self, var: str | None, kind: str | None = None) -> None:
        """``var`` is about to become the target of a stage: it must be
        of ``kind`` (when given) and must not be a constant — the run
        would die at its first assignment on whichever rank got there
        first, so refuse it while the program is being written."""
        if kind is not None:
            self._check_kind(var, kind)
        decl = self._decls.get(var)
        if decl is not None and is_constant(decl.payload):
            raise ArchetypeError(
                f"variable {var!r} is a constant (its initial value is a "
                "read-only array) and cannot be the target of a stage; "
                "declare a writable copy"
            )
