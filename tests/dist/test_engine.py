"""The multiprocess engine: contract, failure reaping, shm hygiene.

Most tests use the ``fork`` start method (cheap on the test box); the
spawn path — bodies crossing by value via the closure pickler — gets
dedicated tests.  Bodies are self-contained (imports inside) so they
survive reconstruction in a pristine interpreter.
"""

import time

import numpy as np
import pytest

from repro.dist.engine import MultiprocessEngine, WorkerCrashError
from repro.dist.shm import live_segment_names
from repro.errors import EmptyChannelError, ProcessFailedError
from repro.runtime import ProcessSpec, System, make_engine
from repro.util import bitwise_equal_arrays


def exchange_system():
    """Two ranks swap a large array each; each stores the peer's."""

    def body(ctx):
        import numpy as _np

        other = 1 - ctx.rank
        ctx.send(f"c{ctx.rank}", ctx.store["u"] * 2.0)
        ctx.store["got"] = ctx.recv(f"c{other}")
        return float(_np.sum(ctx.store["got"]))

    system = System(
        [
            ProcessSpec(r, body, store={"u": np.full(64, float(r + 1))})
            for r in range(2)
        ]
    )
    system.add_channel("c0", 0, 1)
    system.add_channel("c1", 1, 0)
    return system


def run_exchange(engine):
    result = engine.run(exchange_system())
    assert bitwise_equal_arrays(result.stores[0]["got"], np.full(64, 4.0))
    assert bitwise_equal_arrays(result.stores[1]["got"], np.full(64, 2.0))
    assert result.returns == [256.0, 128.0]
    return result


class TestContract:
    def test_exchange_fork(self):
        result = run_exchange(MultiprocessEngine(start_method="fork"))
        assert result.engine == "multiprocess"

    def test_exchange_spawn(self):
        run_exchange(MultiprocessEngine(start_method="spawn"))

    def test_channel_stats_and_bytes(self):
        result = run_exchange(MultiprocessEngine(start_method="fork"))
        assert result.channel_stats == {"c0": (1, 1), "c1": (1, 1)}
        # 64 float64s crossed each channel: at least the raw frame.
        assert result.channel_bytes["c0"] >= 64 * 8
        assert set(result.channel_hwm) == {"c0", "c1"}

    def test_store_mutation_via_shared_memory(self):
        def body(ctx):
            ctx.store["u"][...] += 1.0
            ctx.store["extra"] = "made in worker"

        system = System([ProcessSpec(0, body, store={"u": np.zeros(100)})])
        result = MultiprocessEngine(start_method="fork").run(system)
        assert (result.stores[0]["u"] == 1.0).all()
        assert result.stores[0]["extra"] == "made in worker"

    def test_incompatible_rebind_survives_roundtrip(self):
        def body(ctx):
            import numpy as _np

            ctx.store["u"] = _np.ones((3, 3), dtype=_np.float32)

        system = System([ProcessSpec(0, body, store={"u": np.zeros(100)})])
        result = MultiprocessEngine(start_method="fork").run(system)
        assert result.stores[0]["u"].shape == (3, 3)
        assert result.stores[0]["u"].dtype == np.float32

    def test_initial_stores_not_mutated_in_parent(self):
        def body(ctx):
            ctx.store["u"][...] = 9.0

        initial = np.zeros(100)
        system = System([ProcessSpec(0, body, store={"u": initial})])
        MultiprocessEngine(start_method="fork").run(system)
        assert (initial == 0.0).all()

    def test_timing_split_exposed(self):
        engine = MultiprocessEngine(start_method="fork")
        run_exchange(engine)
        t = engine.last_timing
        assert set(t) == {
            "startup_s", "run_s", "total_s",
            "share_s", "dispatch_s", "readback_s",
        }
        assert 0 <= t["run_s"] <= t["total_s"]
        # The coordinator's phases: share and dispatch before the last
        # rank's ready notice (the end of startup_s; no rank waits for
        # it), readback after the last terminal report.
        assert 0 < t["share_s"] + t["dispatch_s"] <= t["startup_s"]
        assert 0 < t["readback_s"] <= t["total_s"] - t["startup_s"] - t["run_s"]

    def test_trace_is_the_clock_merge(self):
        engine = MultiprocessEngine(start_method="fork", trace=True)
        trace = run_exchange(engine).trace
        assert trace.validate() == []
        assert len(trace.send_recv_pairs()) == 2
        # Separate address spaces observe no order: the clock merge.
        assert trace.events == trace.by_clock().events
        assert {e.index for e in trace} == {-1}

    def test_unknown_start_method_refused(self):
        with pytest.raises(ValueError):
            MultiprocessEngine(start_method="forkserver")


class TestFailures:
    def test_raising_body_becomes_process_failed(self):
        def bad(ctx):
            raise ValueError("boom at rank %d" % ctx.rank)

        system = System([ProcessSpec(0, bad)])
        with pytest.raises(ProcessFailedError) as exc_info:
            MultiprocessEngine(start_method="fork").run(system)
        assert exc_info.value.rank == 0
        assert isinstance(exc_info.value.original, ValueError)
        assert "boom" in str(exc_info.value.original)

    def test_hard_crash_reaped_via_sentinel(self):
        def ok(ctx):
            ctx.store["done"] = True

        def crash(ctx):
            import os as _os

            _os._exit(17)

        system = System([ProcessSpec(0, ok), ProcessSpec(1, crash)])
        with pytest.raises(ProcessFailedError) as exc_info:
            MultiprocessEngine(start_method="fork").run(system)
        assert exc_info.value.rank == 1
        assert isinstance(exc_info.value.original, WorkerCrashError)
        assert exc_info.value.original.exitcode == 17

    @pytest.mark.parametrize(
        "name, kwargs, runs",
        [
            # Twice: the kept pool forks rank 1's replacement in run two.
            ("multiprocess", {"start_method": "fork"}, 2),
            ("multiprocess", {"start_method": "spawn"}, 1),
            # Once: the dead rank took its whole daemon with it.
            ("socket", {}, 1),
        ],
        ids=["multiprocess-fork", "multiprocess-spawn", "socket"],
    )
    def test_crashed_writer_fails_its_reader_promptly(self, name, kwargs, runs):
        # The writer dies without its stream's goodbye, so the blocked
        # reader fails at once — not after crash_grace — and its error
        # names the writer's rank, not an empty channel: an echo, so the
        # run's error blames the writer (an empty channel would blame
        # the reader).  (Workers are borrowed before the run's sockets
        # exist, so no worker holds a stray copy of the dead writer's
        # end.)
        def reader(ctx):
            ctx.store["got"] = ctx.recv("c")

        def crash(ctx):
            import os as _os

            _os._exit(3)

        system = System([ProcessSpec(0, reader), ProcessSpec(1, crash)])
        system.add_channel("c", 1, 0)
        engine = make_engine(name, crash_grace=30.0, **kwargs)
        try:
            for _ in range(runs):
                t0 = time.perf_counter()
                with pytest.raises(ProcessFailedError) as exc_info:
                    engine.run(system)
                assert time.perf_counter() - t0 < 10.0
                assert exc_info.value.rank == 1
                assert isinstance(exc_info.value.original, WorkerCrashError)
        finally:
            engine.close()

    def test_recv_timeout_bounds_blocking(self):
        def stuck(ctx):
            ctx.recv("never")

        def silent(ctx):
            return None

        system = System([ProcessSpec(0, stuck), ProcessSpec(1, silent)])
        system.add_channel("never", 1, 0)
        with pytest.raises(ProcessFailedError) as exc_info:
            MultiprocessEngine(start_method="fork", recv_timeout=0.5).run(system)
        assert exc_info.value.rank == 0
        assert isinstance(exc_info.value.original, EmptyChannelError)


class TestShmHygiene:
    def test_no_leak_after_clean_run(self):
        run_exchange(MultiprocessEngine(start_method="fork"))
        assert live_segment_names() == frozenset()

    def test_no_leak_after_raising_body(self):
        def bad(ctx):
            raise RuntimeError("die")

        system = System(
            [ProcessSpec(0, bad, store={"u": np.zeros(4096)})]
        )
        with pytest.raises(ProcessFailedError):
            MultiprocessEngine(start_method="fork").run(system)
        assert live_segment_names() == frozenset()

    def test_no_leak_after_hard_crash(self):
        def crash(ctx):
            import os as _os

            ctx.store["u"][...] = 1.0
            _os._exit(9)

        system = System(
            [ProcessSpec(0, crash, store={"u": np.zeros(4096)})]
        )
        with pytest.raises(ProcessFailedError):
            MultiprocessEngine(start_method="fork").run(system)
        assert live_segment_names() == frozenset()

    def test_no_leak_after_spawn_run(self):
        run_exchange(MultiprocessEngine(start_method="spawn"))
        assert live_segment_names() == frozenset()


class TestObservation:
    def test_observe_produces_merged_report(self):
        result = run_exchange(
            MultiprocessEngine(start_method="fork", observe=True)
        )
        report = result.report
        assert report is not None
        assert len(report.processes) == 2
        assert {c.name for c in report.channels} == {"c0", "c1"}
        by_name = {c.name: c for c in report.channels}
        assert by_name["c0"].sends == 1 and by_name["c0"].receives == 1

    def test_observe_false_leaves_report_none(self):
        result = run_exchange(MultiprocessEngine(start_method="fork"))
        assert result.report is None
