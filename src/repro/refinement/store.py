"""Simulated address spaces.

Step 1 of the paper's transformation recipe (section 4.4) "in effect
partitions the data into distinct address spaces by adding an index to
each variable; the value of this index constitutes a simulated process
ID".  An :class:`AddressSpace` is one such indexed slice of the data: a
mapping from variable names to values (NumPy arrays or scalars) that
*belongs* to one simulated process.

The class is a thin, checked wrapper over a dict so that

* the same object can wrap a process's live ``ctx.store`` in the
  parallel version (by reference) — local-computation blocks then run
  unchanged in both worlds;
* misspelled variables fail loudly (:class:`~repro.errors.StoreError`)
  instead of silently creating state;
* an assignment to a *constant* (a read-only array,
  :func:`repro.util.is_constant`) fails the same way, naming the
  variable and its owner, where NumPy alone would say only "assignment
  destination is read-only";
* snapshots are deep copies, suitable for bitwise comparison.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.errors import StoreError
from repro.util import (
    copy_unless_constant,
    deep_copy_value,
    is_array_like,
    is_constant,
)

__all__ = ["AddressSpace", "make_stores"]


def _check_compatible(name: str, current: Any, incoming: Any, owner: int) -> None:
    """Array-into-array writes must match shape exactly and cast safely.

    Silent NumPy broadcasting and down-casting are exactly how a wrong
    rank decomposition hides: a (4,) slab lands in a (4, 4) block by
    replication, or a float64 ghost strip quietly truncates into a
    float32 field.  Any such mismatch is a refinement bug, so it raises
    a typed :class:`~repro.errors.StoreError` instead.  Length-1 axes
    are ignored in the comparison — a (3,) value filling a (1, 3) face
    view writes every element exactly once, which is assignment, not
    broadcasting.
    """
    squeezed_in = tuple(d for d in incoming.shape if d != 1)
    squeezed_cur = tuple(d for d in current.shape if d != 1)
    if squeezed_in != squeezed_cur:
        raise StoreError(
            f"shape mismatch writing {name!r} (owner {owner}): variable is "
            f"{tuple(current.shape)}, value is {tuple(incoming.shape)}"
        )
    if incoming.dtype != current.dtype and not np.can_cast(
        incoming.dtype, current.dtype, casting="safe"
    ):
        raise StoreError(
            f"dtype mismatch writing {name!r} (owner {owner}): variable is "
            f"{current.dtype}, value is {incoming.dtype} (unsafe cast)"
        )


class AddressSpace:
    """Named variables of one simulated process.

    Variables must be declared (:meth:`define` or via the constructor
    mapping) before they can be read or assigned; this catches the
    classic refinement bug of a local block inventing state the plan
    never classified as distributed or duplicated.
    """

    __slots__ = ("_vars", "owner")

    def __init__(self, variables: dict[str, Any] | None = None, owner: int = -1):
        self._vars: dict[str, Any] = variables if variables is not None else {}
        #: simulated process ID this space belongs to (-1: unspecified)
        self.owner = owner

    @classmethod
    def wrap(cls, mapping: dict[str, Any], owner: int = -1) -> "AddressSpace":
        """Wrap an existing dict *by reference* (no copy) — used to run
        local blocks against a live process store."""
        return cls(mapping, owner)

    # -- access -----------------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._vars[name]
        except KeyError:
            raise StoreError(
                f"unknown variable {name!r} (owner {self.owner}); "
                f"known: {sorted(self._vars)}"
            ) from None

    def __setitem__(self, name: str, value: Any) -> None:
        if name not in self._vars:
            raise StoreError(
                f"assignment to undeclared variable {name!r} "
                f"(owner {self.owner}); declare it with define()"
            )
        current = self._vars[name]
        self._check_assignable(name, current)
        if is_array_like(current) and is_array_like(value) and value.shape:
            _check_compatible(name, current, value, self.owner)
        self._vars[name] = value

    def _check_assignable(self, name: str, current: Any) -> None:
        if is_constant(current):
            raise StoreError(
                f"assignment to constant {name!r} (owner {self.owner}): its "
                "initial value is a read-only array, which no stage or "
                "local block may write"
            )

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __iter__(self) -> Iterator[str]:
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def keys(self):
        return self._vars.keys()

    def items(self):
        return self._vars.items()

    def raw(self) -> dict[str, Any]:
        """The underlying dict (shared, not copied)."""
        return self._vars

    # -- value helpers -------------------------------------------------------------

    def read_region(self, name: str, region: tuple | None) -> Any:
        """Read (a copy of) ``name`` or a sub-region of it.

        ``region`` is a tuple of slices/ints indexing an array variable,
        or ``None`` for the whole value.  Array reads are copied:
        exchange semantics require right-hand sides evaluated against
        the pre-state.
        """
        value = self[name]
        if region is None:
            return deep_copy_value(value)
        # Duck-typed: any backend's nd-array indexes and copies the same
        # way, so no concrete array class is named here.
        arr = value if is_array_like(value) else np.asarray(value)
        return arr[region].copy()

    def write_region(self, name: str, region: tuple | None, value: Any) -> None:
        """Write ``value`` to ``name`` or a sub-region of it."""
        current = self[name]
        self._check_assignable(name, current)
        if region is None:
            if is_array_like(current) and current.shape:
                incoming = value if is_array_like(value) else np.asarray(value)
                if not incoming.shape:
                    raise StoreError(
                        f"shape mismatch writing {name!r}: variable is "
                        f"{tuple(current.shape)}, value is a scalar"
                    )
                _check_compatible(name, current, incoming, self.owner)
                current[...] = incoming
            else:
                self._vars[name] = value
            return
        target = current
        if not is_array_like(target) or not target.shape:
            raise StoreError(
                f"region write to non-array variable {name!r}"
            )
        view = target[region]
        if is_array_like(value) and value.shape:
            _check_compatible(name, view, value, self.owner)
        target[region] = value

    def snapshot(self) -> dict[str, Any]:
        """Deep copy of all variables (for bitwise comparison)."""
        return {k: deep_copy_value(v) for k, v in self._vars.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace(owner={self.owner}, vars={sorted(self._vars)})"


def make_stores(
    nprocs: int, initial: dict[str, Any] | None = None
) -> list[AddressSpace]:
    """N fresh address spaces, each seeded with a deep copy of ``initial``
    (constants — read-only arrays — are shared, not copied).

    This is the "duplicate all data across all processes" starting point
    of transformation step 1; later steps narrow each space to its local
    section.
    """
    return [
        AddressSpace(
            {k: copy_unless_constant(v) for k, v in (initial or {}).items()},
            owner=i,
        )
        for i in range(nprocs)
    ]
