"""Parallel programming archetypes (paper sections 2.1 and 4.2).

An archetype captures the commonality of a class of programs: a
computational pattern, a parallelization strategy, and the dataflow /
communication structure those two imply.  Concretely, an archetype in
this package offers three things:

* **guidelines** — the section 4.4 step 1-2 classification, made by
  the builder's declarations themselves: each variable is declared
  distributed (ghosted) or duplicated, host-only or grid-only, and each
  piece of computation is appended as a grid or a host stage; a
  classification that cannot hold (a name declared twice, host work
  without a host, a stage on a variable of the wrong kind) is refused
  as it is written (:class:`~repro.archetypes.mesh.MeshProgramBuilder`);
* **transformations** — the same builders assemble the stages of a
  sequential simulated-parallel program for the class
  (:mod:`~repro.archetypes.mesh.skeleton`);
* **a communication library** — the class's data-exchange operations
  (boundary exchange, broadcast, reduction, host redistribution),
  available both as checked
  :class:`~repro.refinement.dataexchange.DataExchange` objects for the
  simulated world and, mechanically, as message-passing code through
  :func:`~repro.refinement.transform.to_parallel_system`.

The one archetype the paper's experiments use — and the one implemented
in full here — is the **mesh archetype** (:mod:`repro.archetypes.mesh`).
"""

from repro.archetypes.base import Archetype, ArchetypeOperation, get_archetype

__all__ = [
    "Archetype",
    "ArchetypeOperation",
    "get_archetype",
]
