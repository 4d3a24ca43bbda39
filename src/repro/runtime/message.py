"""Tagged message envelopes.

Section 3.3 of the paper notes that channels can be simulated "using
tagged point-to-point messages if necessary".  The communicator layer
(:mod:`repro.runtime.communicator`) multiplexes many logical streams
over one physical channel per ordered process pair by wrapping every
payload in a :class:`TaggedMessage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["TaggedMessage", "ANY_TAG"]

#: Wildcard accepted by ``Communicator.recv`` to match any tag.
ANY_TAG: int = -1


@dataclass(frozen=True)
class TaggedMessage:
    """An immutable envelope: source rank, integer tag, payload.

    The payload is carried by reference — processes must not mutate a
    value after sending it.  (The refinement transform only ever sends
    freshly-copied slices; the communicator also offers ``copy=True``
    for defensive callers, and the mpi4py-style facade uses it.)
    """

    source: int
    tag: int
    payload: Any = field(repr=False)

    def __post_init__(self) -> None:
        if self.tag < 0:
            raise ValueError(f"message tag must be non-negative, got {self.tag}")

    def matches(self, tag: int) -> bool:
        """True iff this envelope satisfies a receive for ``tag``."""
        return tag == ANY_TAG or tag == self.tag
