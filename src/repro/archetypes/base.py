"""The archetype abstraction and registry.

An :class:`Archetype` is deliberately mostly *description*: what makes
an archetype useful is its guidelines and its operation library, both
of which are ordinary code elsewhere (the mesh ones live in
:mod:`repro.archetypes.mesh`).  The base class records the pattern —
which operations the class's programs are built from — so tools and
documentation can enumerate them, and so an application can assert
"this program fits archetype X" in a checkable way (every exchange it
performs must be an instance of one of X's operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ArchetypeError

__all__ = ["ArchetypeOperation", "Archetype", "register_archetype", "get_archetype"]


@dataclass(frozen=True)
class ArchetypeOperation:
    """One communication/computation pattern an archetype offers.

    ``kind`` classifies the dataflow: ``"local"`` (no communication),
    ``"exchange"`` (point-to-point between neighbours), ``"collective"``
    (all processes), or ``"redistribution"`` (host <-> grid).
    """

    name: str
    kind: str
    description: str

    def __post_init__(self) -> None:
        if self.kind not in ("local", "exchange", "collective", "redistribution"):
            raise ArchetypeError(f"unknown operation kind {self.kind!r}")


@dataclass
class Archetype:
    """A named program class: computational pattern + operations.

    Instances are registered at import time; applications look their
    archetype up with :func:`get_archetype` and build programs with the
    archetype's own skeleton/library modules.
    """

    name: str
    description: str
    operations: list[ArchetypeOperation] = field(default_factory=list)
    guidelines: str = ""

    def describe(self) -> str:
        lines = [f"archetype {self.name!r}: {self.description}"]
        for op in self.operations:
            lines.append(f"  [{op.kind}] {op.name}: {op.description}")
        return "\n".join(lines)


_REGISTRY: dict[str, Archetype] = {}


def register_archetype(archetype: Archetype) -> Archetype:
    """Register an archetype under its name (idempotent re-register of
    an identical object is allowed)."""
    existing = _REGISTRY.get(archetype.name)
    if existing is not None and existing is not archetype:
        raise ArchetypeError(f"archetype {archetype.name!r} already registered")
    _REGISTRY[archetype.name] = archetype
    return archetype


def get_archetype(name: str) -> Archetype:
    """Look up a registered archetype (importing built-ins lazily)."""
    if name not in _REGISTRY and name == "mesh":
        import repro.archetypes.mesh  # noqa: F401 - registers itself
    if name not in _REGISTRY and name == "pipeline":
        import repro.archetypes.pipeline  # noqa: F401 - registers itself
    if name not in _REGISTRY and name == "divide-conquer":
        import repro.archetypes.divide_conquer  # noqa: F401 - registers itself
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ArchetypeError(
            f"unknown archetype {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
