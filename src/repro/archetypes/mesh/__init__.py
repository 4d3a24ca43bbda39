"""The mesh archetype (paper section 4.2).

Computational pattern: operations over 1-3-D grids — pointwise /
stencil grid operations, reductions, and file I/O, with duplicated
global variables.  Parallelization strategy: block decomposition into
contiguous local sections with ghost boundaries, a host process for
I/O, and a small communication library (boundary exchange, broadcast,
reduction, host redistribution).

Importing this package registers the archetype under the name
``"mesh"`` (see :func:`repro.archetypes.get_archetype`).
"""

from repro.archetypes.mesh.decomposition import (
    BlockDecomposition,
    ProcessGrid,
    block_bounds,
    choose_process_grid,
    factorizations,
)
from repro.archetypes.mesh.ghost import (
    ghost_face_region,
    owned_face_region,
)
from repro.archetypes.mesh.distributed_grid import (
    gather_array,
    local_like,
    scatter_array,
)
from repro.archetypes.mesh.exchange import (
    boundary_exchange_op,
    boundary_exchange_ops_with_corners,
)
from repro.archetypes.mesh.reduction import (
    broadcast_stage,
    combine_block,
    gather_stage,
    partials_buffer,
)
from repro.archetypes.mesh.gio import collect_stage, distribute_stage
from repro.archetypes.mesh.skeleton import MeshProgramBuilder
from repro.archetypes.mesh.library import MESH_ARCHETYPE
from repro.archetypes.mesh.redundancy import (
    add_redundant_sweeps,
    extended_sweep_region,
    redundant_comm_volume,
)

__all__ = [
    "BlockDecomposition",
    "ProcessGrid",
    "block_bounds",
    "choose_process_grid",
    "factorizations",
    "owned_face_region",
    "ghost_face_region",
    "scatter_array",
    "gather_array",
    "local_like",
    "boundary_exchange_op",
    "boundary_exchange_ops_with_corners",
    "gather_stage",
    "combine_block",
    "broadcast_stage",
    "partials_buffer",
    "distribute_stage",
    "collect_stage",
    "MeshProgramBuilder",
    "MESH_ARCHETYPE",
    "add_redundant_sweeps",
    "extended_sweep_region",
    "redundant_comm_volume",
]
