"""A rank's step plan on a warm pool: rebound per run, gone after it.

A :class:`~repro.apps.fdtd.step.RankPass` binds its step to the arrays
of one run (:class:`~repro.apps.fdtd.step.StepPlan`).  On a pool those
arrays are views into the run's packs, and the pass itself lives on in
the worker's resident body.  So:

* warm runs of one ``System`` on *different* packs (an earlier result
  is held, so each run gets fresh ones) must each rebind and agree
  bitwise with the pinned digests;
* after every run, no resident ``RankPass`` holds a plan — nothing in a
  parked worker views a finished run's segment;
* a resident pass pickles to the size of a fresh, never-run one.

The resident passes are read from inside the workers by a probe system
run on the same pool: a checkout hands the same workers to the same
ranks, and each probe rank reports what its worker's heap holds.
"""

import pickle

import pytest

from repro.apps.fdtd.parallel import rank_passes
from repro.dist.engine import run_on_pool
from repro.dist.pool import WorkerPool
from repro.dist.shm import live_segment_names
from repro.runtime import ProcessSpec, System
from tests.fdtd.test_digest_matrix import build, expected_digest, stores_digest


def resident_passes(ctx):
    """This worker's ``RankPass`` objects: how many, how many hold a
    plan, and each one's pickled size (sorted)."""
    import gc
    import pickle

    from repro.apps.fdtd.step import RankPass

    gc.collect()  # only what a resident body still reaches
    passes = [o for o in gc.get_objects() if isinstance(o, RankPass)]
    return (
        len(passes),
        sum(p._plan is not None for p in passes),
        sorted(len(pickle.dumps(p)) for p in passes),
    )


def probe_system(nprocs: int) -> System:
    return System([ProcessSpec(r, resident_passes) for r in range(nprocs)])


@pytest.mark.parametrize("overlap", [False, True], ids=["plain", "overlap"])
def test_warm_runs_on_new_packs_rebind_and_leave_no_plan(overlap):
    # Spawned, not forked: a forked worker would inherit every pass
    # this process holds, so only program images bring one to a worker.
    with WorkerPool("spawn") as pool:
        par = build("A", (2, 1, 1), overlap)
        system = par.to_parallel()
        fresh = sorted(
            len(pickle.dumps(p))
            for rank in range(par.grid_size)
            for p in rank_passes(par.config, par.decomp, rank, None, overlap)
        )
        probe = probe_system(system.nprocs)
        held = []  # every result stays alive: each run maps new packs
        for _ in range(3):
            created = pool.arena.created
            held.append(run_on_pool(pool, system))
            if len(held) > 1:
                assert pool.arena.created - created == system.nprocs
            assert stores_digest(par, held[-1].stores) == expected_digest("A")
            # every worker's resident body keeps every rank's passes
            for count, planned, sizes in run_on_pool(pool, probe).returns:
                assert count == len(fresh)
                assert planned == 0
                assert sizes == fresh
        del held
    assert live_segment_names() == frozenset()
