"""One step of the contract, planned once and run many times.

Every driver runs the same per-step contract (:mod:`~repro.apps.fdtd.
version_a`): Mur record -> E update -> Mur apply -> sources, then H
update -> far-field accumulation.  A :class:`RankPass` is one caller's
share of it — a grid process's block (or, under the overlap refinement,
its shell or interior pieces) or, for the sequential drivers, the whole
grid — and :meth:`RankPass.e` / :meth:`RankPass.h` are the only code
that runs the contract.

What a step does to its arrays never changes between steps: the same
regions, strides and slabs, the same Mur faces, the same driven nodes.
So at its first step a pass binds all of it into a :class:`StepPlan`:
every flat-path kernel piece as operand, scratch and ``copyto`` views
(:func:`~repro.apps.fdtd.update.bind_curl`), ordered slab-major across
a half-step's pieces, the low-fill pieces as
ready ``curl_update`` arguments, Mur's face and inward views with their
previous-step planes, and each source's target view.  A step then runs
only ufuncs and ``copyto``s on bound views, so its fixed cost per call
no longer depends on how few cells a rank owns.

The plan's lifetime follows the far-field work arrays
(:class:`~repro.apps.fdtd.ntff.NTFFAccumulator`): built at a run's first
step, dropped after its last (``steps - 1``), never pickled, and rebuilt
whenever a bound array is not the store's current object — a warm
pooled run maps new pack views, and a finished run's pass holds no view
into its segment.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Mapping

import numpy as np

from repro.apps.fdtd.update import (
    STEP_ARRAYS,
    KernelScratch,
    bind_curl,
    curl_pieces,
    curl_update,
    run_curl,
)

__all__ = ["RankPass", "StepPlan"]


def _bind_half(arrays, step_pass: "RankPass", half: str):
    """One half-step's flat-path slabs, slab-major — slab k of every
    piece before slab k+1 of any — and the ``curl_update`` arguments of
    its pieces that take the reference expression.

    The pieces write disjoint cells and read only the other field, so
    any interleaving of their slabs is bitwise the same half-step; this
    one keeps the planes a slab reads in cache for the next piece's."""
    pieces, reference = [], []
    for args in curl_pieces(
        arrays, step_pass.regions, step_pass.inv_spacing, half
    ):
        bound = bind_curl(*args, step_pass.scratch)
        if bound is None:
            reference.append(args)
        else:
            pieces.append(bound)
    slabs = [
        slab for row in zip_longest(*pieces) for slab in row if slab is not None
    ]
    return slabs, reference


def _bind_mur(arrays, mur) -> list[tuple]:
    """Per Mur face (none without a ``Mur1``): the face and inward
    views, the previous step's copies of both and the plane ``apply``
    computes in (contiguous: a ufunc on strided planes buffers a copy of
    them), and the coefficient."""
    bound = []
    for (comp, axis, *_), (face, inward) in (mur.regions if mur else {}).items():
        arr = arrays[comp]
        planes = np.empty((3,) + arr[face].shape, arr.dtype)
        bound.append((arr[face], arr[inward], *planes, mur.coef[axis]))
    return bound


class StepPlan:
    """One pass's step, bound to one set of arrays.

    ``arrays`` holds the objects the views were cut from, by name;
    :meth:`bound_to` is the identity check that decides a rebuild.
    """

    def __init__(self, step_pass: "RankPass", store: Mapping) -> None:
        arrays = self.arrays = {name: store[name] for name in STEP_ARRAYS}
        self.e_slabs, self.e_reference = _bind_half(arrays, step_pass, "e")
        self.h_slabs, self.h_reference = _bind_half(arrays, step_pass, "h")
        self.mur = _bind_mur(arrays, step_pass.mur)
        self.drives = [
            (arrays[src.component][region], src.value)
            for src, region in step_pass.drives
        ]

    def bound_to(self, store: Mapping) -> bool:
        """Whether every bound array is still ``store``'s current object."""
        return all(store[name] is arr for name, arr in self.arrays.items())

    def e(self, step: int) -> None:
        """Mur record -> E update -> Mur apply -> sources."""
        copyto, subtract, multiply, add = np.copyto, np.subtract, np.multiply, np.add
        for face, inward, face_old, inward_old, _, _ in self.mur:
            copyto(face_old, face)
            copyto(inward_old, inward)
        run_curl(self.e_slabs)
        for args in self.e_reference:
            curl_update(*args)
        for face, inward, face_old, inward_old, work, coef in self.mur:
            # inward_old + coef * (inward - face_old), as Mur1.apply
            copyto(work, inward)
            subtract(work, face_old, work)
            multiply(work, coef, work)
            add(work, inward_old, work)
            copyto(face, work)
        for view, value in self.drives:
            view += value(step)

    def h(self) -> None:
        """The H update."""
        run_curl(self.h_slabs)
        for args in self.h_reference:
            curl_update(*args)


class RankPass:
    """One caller's share of one pass of the step contract.

    A pass holds its update region (or pieces) per component, its
    :class:`~repro.apps.fdtd.boundary.Mur1` or ``None``, the
    ``(source, region)`` pieces it drives and its
    :class:`~repro.apps.fdtd.ntff.NTFFAccumulator` or ``None``.
    :meth:`e` and :meth:`h` run the two local phases of the contract on
    exactly those pieces, through the pass's :class:`StepPlan`.  The
    sequential drivers are one pass over the whole grid; the baseline
    parallel program has one pass per rank; the overlap refinement has a
    shell and an interior pass that tile the rank's cells, so running
    both performs every operation of the one pass.
    """

    def __init__(
        self,
        regions,
        mur,
        drives,
        accumulator,
        inv_spacing,
        scratch: KernelScratch,
        steps: int,
    ):
        self.regions = regions
        self.mur = mur
        self.drives = drives
        self.accumulator = accumulator
        self.inv_spacing = inv_spacing
        self.scratch = scratch
        self.steps = steps
        self._plan: StepPlan | None = None

    def __getstate__(self):
        # The plan is views into one run's arrays: it never crosses a
        # pickle, and a program image taken after a run is no larger.
        return {**self.__dict__, "_plan": None}

    def plan(self, store: Mapping) -> StepPlan:
        """The pass's plan for ``store``, bound now if it is not yet."""
        plan = self._plan
        if plan is None or not plan.bound_to(store):
            plan = self._plan = StepPlan(self, store)
        return plan

    def e(self, store: Mapping, step: int) -> None:
        """Mur record -> E update -> Mur apply -> sources."""
        self.plan(store).e(step)

    def h(self, store: Mapping, step: int) -> None:
        """H update -> far-field accumulation; the last step drops the
        plan, so a finished run's pass holds no view of its arrays."""
        self.plan(store).h()
        if self.accumulator is not None:
            self.accumulator.accumulate_into(
                store, step, store["ffA"], store["ffF"]
            )
        if step == self.steps - 1:
            self._plan = None
