"""The serving core in one process: ``JobServerCore`` over a counter.

``JobServer`` and ``FleetScheduler`` bind :class:`JobServerCore` to
worker processes; here a subclass binds it to a plain count of free
ranks and an ``_execute`` that waits for its job's gate, so admission,
the ready queue, failure containment, ``close(drain=False)`` and
``stats()`` are checked with no process, pool or socket.
"""

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.dist.serving import JobServerCore, ServerClosedError, percentile
from repro.runtime import ProcessSpec, System
from tests.integration.test_number_readers import _find, _keys_written, _parse

WAIT = 10.0  # seconds; only a broken core waits this long
SETTLE = 0.2  # seconds a blocked call is given to (wrongly) go through


def _system(nprocs: int) -> System:
    return System([ProcessSpec(r, lambda ctx: None) for r in range(nprocs)])


class CounterServer(JobServerCore):
    """Capacity is ``free`` ranks; a job runs until its gate opens and
    fails when its label starts with ``fail``."""

    def __init__(self, capacity: int, *, max_inflight: int):
        super().__init__(max_inflight=max_inflight)
        self.free = capacity
        self.gates: dict[str, threading.Event] = {}
        self.started: dict[str, threading.Event] = {}
        self.order: list[str] = []

    def submit_gated(self, label: str, nprocs: int = 1):
        self.gates[label] = threading.Event()
        self.started[label] = threading.Event()
        return self.submit(_system(nprocs), label=label)

    def _try_reserve(self, job):
        if self.free < job.system.nprocs:
            return None
        self.free -= job.system.nprocs
        return job.system.nprocs

    def _release(self, job, grant) -> None:
        self.free += grant

    def _execute(self, job, prepared, grant):
        label = job.stats.label
        self.order.append(label)
        self.started[label].set()
        assert self.gates[label].wait(WAIT), f"{label} was never let go"
        job.stats.startup_s = 0.001
        if label.startswith("fail"):
            raise RuntimeError(f"{label} raised")
        return label

    def queued(self) -> int:
        with self._cv:
            return len(self._queued)


def _until(predicate) -> None:
    deadline = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_submit_blocks_at_max_inflight():
    server = CounterServer(capacity=4, max_inflight=2)
    first = server.submit_gated("a")
    server.submit_gated("b")
    admitted = threading.Event()
    third = []

    def submit_third():
        third.append(server.submit_gated("c"))
        admitted.set()

    thread = threading.Thread(target=submit_third)
    thread.start()
    assert not admitted.wait(SETTLE), "a third job got past max_inflight=2"
    server.gates["a"].set()
    assert first.result(WAIT) == "a"
    assert admitted.wait(WAIT)
    thread.join(WAIT)
    assert not thread.is_alive()
    server.gates["b"].set()
    server.gates["c"].set()
    assert third[0].result(WAIT) == "c"
    server.close()
    assert server.stats()["inflight_hwm"] == 2


def test_jobs_dispatch_fifo_and_the_head_blocks_smaller_jobs():
    server = CounterServer(capacity=3, max_inflight=3)
    futures = [server.submit_gated("a", nprocs=2)]
    assert server.started["a"].wait(WAIT)
    futures.append(server.submit_gated("b", nprocs=2))
    _until(lambda: server.queued() == 1)
    futures.append(server.submit_gated("c", nprocs=1))
    _until(lambda: server.queued() == 2)
    # One rank is free and c needs one, but b is the head of the queue.
    assert not server.started["c"].wait(SETTLE)
    server.gates["a"].set()
    assert server.started["b"].wait(WAIT)
    assert server.started["c"].wait(WAIT)
    for gate in server.gates.values():
        gate.set()
    assert [f.result(WAIT) for f in futures] == ["a", "b", "c"]
    assert server.order == ["a", "b", "c"]
    server.close()


class SlowPrepareServer(CounterServer):
    """``_prepare`` takes ``SETTLE`` seconds for job ``a`` and raises for
    a job labelled ``bad``."""

    def _prepare(self, job):
        if job.stats.label == "a":
            time.sleep(SETTLE)
        if job.stats.label == "bad":
            raise RuntimeError("bad did not prepare")


def test_a_slow_prepare_keeps_its_place_in_the_queue():
    server = SlowPrepareServer(capacity=1, max_inflight=3)
    futures = [server.submit_gated("x")]
    assert server.started["x"].wait(WAIT)
    # b prepares at once and a takes SETTLE, while x holds the only rank.
    futures += [server.submit_gated("a"), server.submit_gated("b")]
    for gate in server.gates.values():
        gate.set()
    assert [f.result(WAIT) for f in futures] == ["x", "a", "b"]
    assert server.order == ["x", "a", "b"]
    server.close()


def test_a_failed_prepare_leaves_the_queue():
    server = SlowPrepareServer(capacity=1, max_inflight=3)
    running = server.submit_gated("x")
    assert server.started["x"].wait(WAIT)
    failing, passing = server.submit_gated("bad"), server.submit_gated("ok")
    with pytest.raises(RuntimeError, match="bad did not prepare"):
        failing.result(WAIT)
    for gate in server.gates.values():
        gate.set()
    assert (running.result(WAIT), passing.result(WAIT)) == ("x", "ok")
    assert server.order == ["x", "ok"]
    server.close()
    assert server.queued() == 0 and server.free == 1


def test_a_raising_execute_fails_only_its_own_future():
    server = CounterServer(capacity=2, max_inflight=2)
    failing = server.submit_gated("fail-1")
    passing = server.submit_gated("ok")
    for gate in server.gates.values():
        gate.set()
    with pytest.raises(RuntimeError, match="fail-1 raised"):
        failing.result(WAIT)
    assert passing.result(WAIT) == "ok"
    server.close()
    stats = server.stats()
    assert (stats["jobs_done"], stats["jobs_failed"]) == (2, 1)
    assert server.free == 2


def test_close_without_drain_fails_queued_futures():
    server = CounterServer(capacity=1, max_inflight=3)
    running = server.submit_gated("a")
    assert server.started["a"].wait(WAIT)
    queued = [server.submit_gated("b"), server.submit_gated("c")]
    _until(lambda: server.queued() == 2)
    queued[1].cancel()
    closer = threading.Thread(target=server.close, kwargs={"drain": False})
    closer.start()
    with pytest.raises(ServerClosedError):
        queued[0].result(WAIT)
    with pytest.raises(CancelledError):
        queued[1].result(WAIT)
    assert closer.is_alive(), "close(drain=False) left a running job"
    server.gates["a"].set()
    closer.join(WAIT)
    assert not closer.is_alive()
    assert running.result(WAIT) == "a"
    assert server.order == ["a"]
    with pytest.raises(ServerClosedError):
        server.submit(_system(1))


def test_stats_returns_exactly_the_inventoried_keys():
    produced = _keys_written(
        _find(_parse("src/repro/dist/serving.py"), "JobServerCore.stats")
    )
    server = CounterServer(capacity=1, max_inflight=1)
    assert set(server.stats()) == produced - {"startup_ms_p50"}
    server.submit_gated("a")
    server.gates["a"].set()
    server.close()
    stats = server.stats()
    assert set(stats) == produced
    assert stats["jobs_done"] == 1 and stats["max_inflight"] == 1
    assert stats["startup_ms_p50"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "values, q, expected",
    [
        ([1, 2, 3, 4], 0.5, 2),
        ([1, 2, 3, 4, 5, 6], 0.5, 3),
        ([1, 2, 3, 4, 5, 6, 7, 8], 0.5, 4),
        ([1, 2, 3], 0.5, 2),
        (list(range(1, 21)), 0.95, 19),
        (list(range(1, 21)), 1.0, 20),
        ([7], 0.95, 7),
        ([1, 2], 0.0, 1),
    ],
)
def test_percentile_is_the_ceil_q_n_th_smallest(values, q, expected):
    assert percentile(values, q) == expected
