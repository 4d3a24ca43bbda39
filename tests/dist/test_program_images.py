"""Once-per-System program images: dispatching an unchanged System is
a dictionary lookup, not a re-pickle of every rank's closure graph.

The cache (:func:`repro.dist.closures.body_images`) must be invisible
except in time: results stay bitwise identical run after run, rebinding
a body is noticed, and a dropped System takes its entry with it.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.dist import closures
from repro.dist.engine import MultiprocessEngine
from repro.dist.fleet import FleetScheduler
from repro.dist.net.engine import SocketEngine
from repro.dist.serve import JobServer
from repro.runtime import ProcessSpec, System, ThreadedEngine
from repro.util import bitwise_equal_arrays


def make_body(scale):
    def body(ctx):
        other = 1 - ctx.rank
        ctx.send(f"c{ctx.rank}", ctx.store["u"] * scale)
        ctx.store["ghost"] = ctx.recv(f"c{other}")
        return float(ctx.store["ghost"].sum())

    return body


def exchange_system(scale=2.0):
    system = System(
        [
            ProcessSpec(r, make_body(scale), store={"u": np.arange(64.0) + r})
            for r in range(2)
        ]
    )
    for r in range(2):
        system.add_channel(f"c{r}", r, 1 - r)
    return system


@pytest.fixture
def body_dumps(monkeypatch):
    """Every object ``closures.dumps`` is asked to pickle, by id."""
    seen = []
    real = closures.dumps

    def counting(obj):
        seen.append(id(obj))
        return real(obj)

    monkeypatch.setattr(closures, "dumps", counting)
    return lambda system: [
        sum(1 for i in seen if i == id(p.body)) for p in system.processes
    ]


def assert_same(a, b):
    assert a.returns == b.returns
    for sa, sb in zip(a.stores, b.stores):
        assert set(sa) == set(sb)
        for key in sa:
            assert bitwise_equal_arrays(
                np.asarray(sa[key]), np.asarray(sb[key])
            )


class _Submitting:
    """Give a job server the engines' ``run`` shape."""

    def __init__(self, server):
        self._server = server

    def run(self, system):
        return self._server.submit(system).result(timeout=120)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._server.close()


FRONT_ENDS = {
    "multiprocess": lambda: MultiprocessEngine(start_method="fork"),
    "jobserver": lambda: _Submitting(JobServer(pool_size=2)),
    "socket": lambda: SocketEngine(),
    "fleet": lambda: _Submitting(
        FleetScheduler(daemons=2, heartbeat_interval=0.2)
    ),
}


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_two_runs_of_one_system_pickle_each_body_once(front_end, body_dumps):
    system = exchange_system()
    reference = ThreadedEngine().run(system)
    with FRONT_ENDS[front_end]() as engine:
        first = engine.run(system)
        assert body_dumps(system) == [1, 1]
        second = engine.run(system)
        assert body_dumps(system) == [1, 1]
    assert_same(first, reference)
    assert_same(second, reference)


def test_rebinding_a_body_repickles_that_rank_only(body_dumps):
    system = exchange_system(scale=2.0)
    with MultiprocessEngine(start_method="fork") as engine:
        before = engine.run(system)
        old = system.processes[0].body
        system.processes[0].body = make_body(10.0)
        after = engine.run(system)
        assert body_dumps(system) == [1, 1]  # the new rank-0 body, once
        assert closures.body_images(system)[0] != closures.dumps(old)
        assert_same(engine.run(system), after)
        assert body_dumps(system) == [1, 1]
    # Rank 1 received rank 0's send, scaled by the new body.
    assert after.returns[1] == 5.0 * before.returns[1]
    assert after.returns[0] == before.returns[0]


def test_images_are_reused_and_loadable():
    system = exchange_system()
    first = closures.body_images(system)
    again = closures.body_images(system)
    assert all(a is b for a, b in zip(first, again))
    for image, spec in zip(first, system.processes):
        rebuilt = closures.loads(image)
        assert rebuilt.__code__ is not None
        assert rebuilt.__qualname__ == spec.body.__qualname__


def test_dropped_system_takes_its_images_with_it():
    system = exchange_system()
    gc.collect()  # other tests' dead Systems go now, not mid-count
    entries = len(closures._images)
    closures.body_images(system)
    assert len(closures._images) == entries + 1
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None
    assert len(closures._images) == entries
