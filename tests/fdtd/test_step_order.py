"""Slab-major half-steps: a :class:`StepPlan` runs slab k of every piece
before slab k+1 of any.

The three updates of a half-step write disjoint arrays and read only
the other field, so any interleaving of their slabs is the same
program: the plan must equal the unbound reference (``scratch=None``)
bit for bit whatever the block size, on the sequential pass, on rank
passes and on the overlap program's shell and interior passes.
"""

from unittest import mock

import numpy as np
import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    FDTDConfig,
    GaussianPulse,
    Material,
    MaterialGrid,
    PointSource,
    VersionA,
    YeeGrid,
)
from repro.apps.fdtd import update
from repro.apps.fdtd.grid import E_COMPONENTS, H_COMPONENTS
from repro.apps.fdtd.parallel import rank_passes
from repro.apps.fdtd.update import curl_update, run_curl, update_e, update_h
from repro.archetypes.mesh.decomposition import BlockDecomposition
from repro.archetypes.mesh.distributed_grid import scatter_array
from repro.refinement.store import AddressSpace
from repro.util import bitwise_equal_arrays


def _config():
    grid = YeeGrid(shape=(14, 13, 12))
    mats = MaterialGrid(grid).add_box(
        (5, 4, 3), (9, 8, 7), Material(eps_r=3.0, sigma_e=0.01)
    )
    return FDTDConfig(
        grid=grid,
        steps=3,
        materials=mats,
        sources=[
            PointSource("ez", (3, 6, 5), GaussianPulse(delay=8, spread=3))
        ],
    )


#: (process grid, overlap) per case; ``None`` is the sequential pass.
CASES = {
    "sequential": None,
    "2x1x1": ((2, 1, 1), False),
    "1x2x1": ((1, 2, 1), False),
    "2x1x1-overlap": ((2, 1, 1), True),
    "1x2x1-overlap": ((1, 2, 1), True),
}

#: ``_BLOCK`` in planes of the pass's arrays; ``None`` is the whole array.
BLOCKS = {"1-plane": 1.0, "2.5-planes": 2.5, "whole-array": None}


def _random_fields(arrays, seed):
    rng = np.random.default_rng(seed)
    for comp in COMPONENTS:
        arrays[comp][...] = rng.uniform(-1.0, 1.0, arrays[comp].shape)


def _passes(case):
    """``(pass, arrays)`` pairs of a case, fields random."""
    config = _config()
    if CASES[case] is None:
        driver = VersionA(config)
        arrays = driver._arrays(config.initial_fields())
        _random_fields(arrays, 0)
        return [(driver._pass, arrays)]
    pshape, overlap = CASES[case]
    decomp = BlockDecomposition(config.grid.node_shape, pshape, ghost=1)
    globals_ = dict(config.initial_fields().components())
    globals_.update(config.coefficient_set().arrays())
    _random_fields(globals_, 1)
    out = []
    for rank in range(decomp.nprocs):
        store = AddressSpace(
            {
                name: scatter_array(decomp, arr, fill_ghosts=True)[rank]
                for name, arr in globals_.items()
            }
        )
        for step_pass in rank_passes(config, decomp, rank, None, overlap):
            out.append((step_pass, store))
    return out


def _copy(arrays):
    return {k: v.copy() for k, v in arrays.items()}


def _block(arrays, planes):
    shape = arrays["ex"].shape
    if planes is None:
        return arrays["ex"].size
    return int(planes * shape[1] * shape[2])


def _bind(step_pass, arrays, planes):
    with mock.patch.object(update, "_BLOCK", _block(arrays, planes)):
        return step_pass.plan(arrays)


@pytest.mark.parametrize("planes", list(BLOCKS.values()), ids=list(BLOCKS))
@pytest.mark.parametrize("case", list(CASES))
def test_planned_steps_equal_the_unbound_reference(case, planes):
    for step_pass, arrays in _passes(case):
        planned, unbound = _copy(arrays), _copy(arrays)
        plan = _bind(step_pass, planned, planes)
        if planes == 1.0 and CASES[case] is None:
            assert len(plan.e_slabs) > 3  # several slabs per component
        for _ in range(3):
            for slabs, reference, half in (
                (plan.e_slabs, plan.e_reference, update_e),
                (plan.h_slabs, plan.h_reference, update_h),
            ):
                run_curl(slabs)
                for args in reference:
                    curl_update(*args)
                half(unbound, step_pass.regions, step_pass.inv_spacing)
                assert all(
                    bitwise_equal_arrays(planned[c], unbound[c])
                    for c in COMPONENTS
                ), (case, step_pass)


def _written(slab, arrays, comps):
    """The component a bound slab writes, and its first flat element."""
    dst = slab[8]
    (comp,) = [c for c in comps if np.shares_memory(dst, arrays[c])]
    return comp, (dst.ctypes.data - arrays[comp].ctypes.data) // dst.itemsize


@pytest.mark.parametrize("case", ["sequential", "2x1x1", "1x2x1"])
def test_half_steps_are_bound_slab_major(case):
    for step_pass, arrays in _passes(case):
        plan = _bind(step_pass, arrays, 2.0)
        for slabs, comps in (
            (plan.e_slabs, E_COMPONENTS),
            (plan.h_slabs, H_COMPONENTS),
        ):
            order = [_written(slab, arrays, comps) for slab in slabs]
            starts = {c: [at for got, at in order if got == c] for c in comps}
            for c in comps:
                assert len(starts[c]) > 1 and starts[c] == sorted(starts[c])
            rounds = max(map(len, starts.values()))
            assert order == [
                (c, starts[c][k])
                for k in range(rounds)
                for c in comps
                if k < len(starts[c])
            ]
