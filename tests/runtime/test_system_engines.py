"""System wiring plus both engines running the same process bodies."""

import pytest

from repro.errors import (
    ChannelError,
    DeadlockError,
    ProcessFailedError,
    RuntimeModelError,
    ScheduleError,
)
from repro.runtime import (
    CooperativeEngine,
    ProcessSpec,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    SendsFirstPolicy,
    System,
    ThreadedEngine,
)


def ping_pong_system(rounds=3):
    """P0 sends i, P1 doubles and returns it, P0 accumulates."""

    def p0(ctx):
        total = 0
        for i in range(rounds):
            ctx.send("ping", i)
            total += ctx.recv("pong")
        ctx.store["total"] = total
        return total

    def p1(ctx):
        for _ in range(rounds):
            ctx.send("pong", 2 * ctx.recv("ping"))

    system = System([ProcessSpec(0, p0), ProcessSpec(1, p1)])
    system.add_channel("ping", 0, 1)
    system.add_channel("pong", 1, 0)
    return system


class TestSystemWiring:
    def test_ranks_must_be_dense(self):
        with pytest.raises(RuntimeModelError, match="dense"):
            System([ProcessSpec(0, lambda c: None), ProcessSpec(2, lambda c: None)])

    def test_duplicate_channel_name_rejected(self):
        system = System([ProcessSpec(0, lambda c: None), ProcessSpec(1, lambda c: None)])
        system.add_channel("c", 0, 1)
        with pytest.raises(ChannelError, match="duplicate"):
            system.add_channel("c", 1, 0)

    def test_channel_endpoint_must_exist(self):
        system = System([ProcessSpec(0, lambda c: None), ProcessSpec(1, lambda c: None)])
        with pytest.raises(ChannelError, match="does not exist"):
            system.add_channel("c", 0, 5)

    def test_channels_by_rank(self):
        system = ping_pong_system()
        specs = system.channel_specs
        assert [c.name for c in specs if c.writer == 0] == ["ping"]
        assert [c.name for c in specs if c.reader == 0] == ["pong"]


class TestBothEnginesAgree:
    @pytest.mark.parametrize(
        "engine",
        [
            ThreadedEngine(),
            CooperativeEngine(RoundRobinPolicy()),
            CooperativeEngine(RandomPolicy(seed=7)),
            CooperativeEngine(RunToBlockPolicy()),
            CooperativeEngine(SendsFirstPolicy()),
        ],
        ids=["threaded", "coop-rr", "coop-random", "coop-rtb", "coop-sends"],
    )
    def test_ping_pong_result(self, engine):
        result = engine.run(ping_pong_system(rounds=5))
        assert result.returns[0] == 2 * sum(range(5))
        assert result.stores[0]["total"] == 2 * sum(range(5))

    def test_store_isolation_between_runs(self):
        system = ping_pong_system()
        engine = ThreadedEngine()
        r1 = engine.run(system)
        r2 = engine.run(system)
        assert r1.stores[0] == r2.stores[0]
        # initial store specs unchanged by the run
        assert system.processes[0].store == {}

    def test_initial_store_is_deep_copied(self):
        import numpy as np

        def body(ctx):
            ctx.store["x"][0] = 99.0

        spec = ProcessSpec(0, body, store={"x": np.zeros(3)})
        system = System([spec])
        ThreadedEngine().run(system)
        assert spec.store["x"][0] == 0.0


class TestCooperativeTracing:
    def test_trace_records_all_actions(self):
        engine = CooperativeEngine(RoundRobinPolicy(), trace=True)
        result = engine.run(ping_pong_system(rounds=2))
        kinds = [e.kind for e in result.trace]
        assert kinds.count("send") == 4
        assert kinds.count("recv") == 4

    def test_replay_reproduces_schedule(self):
        engine = CooperativeEngine(RandomPolicy(seed=3), trace=True)
        first = engine.run(ping_pong_system(rounds=4))
        replayed = CooperativeEngine(
            ReplayPolicy(first.schedule), trace=True
        ).run(ping_pong_system(rounds=4))
        assert replayed.schedule == first.schedule
        assert replayed.returns == first.returns

    def test_channel_stats(self):
        result = CooperativeEngine().run(ping_pong_system(rounds=3))
        assert result.channel_stats["ping"] == (3, 3)
        assert result.channel_stats["pong"] == (3, 3)

    def test_step_markers_appear_in_trace(self):
        def body(ctx):
            ctx.step("warmup")
            ctx.step("work")

        system = System([ProcessSpec(0, body)])
        result = CooperativeEngine().run(system)
        assert [e.label for e in result.trace] == ["warmup", "work"]


class TestFailureModes:
    def test_body_exception_threaded(self):
        def bad(ctx):
            raise ValueError("boom")

        system = System([ProcessSpec(0, bad)])
        with pytest.raises(ProcessFailedError, match="process 0"):
            ThreadedEngine().run(system)

    def test_body_exception_cooperative(self):
        def bad(ctx):
            ctx.step()
            raise ValueError("boom")

        system = System([ProcessSpec(0, bad)])
        with pytest.raises(ProcessFailedError) as exc_info:
            CooperativeEngine().run(system)
        assert isinstance(exc_info.value.original, ValueError)

    def test_mutual_recv_deadlock_detected_cooperative(self):
        def want_first(ctx):
            ctx.recv("a" if ctx.rank == 0 else "b")
            ctx.send("b" if ctx.rank == 0 else "a", 1)

        system = System([ProcessSpec(0, want_first), ProcessSpec(1, want_first)])
        system.add_channel("a", 1, 0)
        system.add_channel("b", 0, 1)
        with pytest.raises(DeadlockError) as exc_info:
            CooperativeEngine().run(system)
        assert set(exc_info.value.waiting) == {0, 1}

    def test_underfed_reader_threaded_raises_not_hangs(self):
        def writer(ctx):
            ctx.send("c", 1)  # one value only

        def reader(ctx):
            ctx.recv("c")
            ctx.recv("c")  # never arrives; writer closes on exit

        system = System([ProcessSpec(0, writer), ProcessSpec(1, reader)])
        system.add_channel("c", 0, 1)
        with pytest.raises(ProcessFailedError, match="process 1"):
            ThreadedEngine().run(system)

    def test_max_actions_guard(self):
        def chatter(ctx):
            if ctx.rank == 0:
                while True:
                    ctx.send("c", 0)
            else:
                while True:
                    ctx.recv("c")

        system = System([ProcessSpec(0, chatter), ProcessSpec(1, chatter)])
        system.add_channel("c", 0, 1)
        with pytest.raises(ScheduleError, match="max_actions"):
            CooperativeEngine(max_actions=100).run(system)

    def test_replay_infeasible_schedule(self):
        # Schedule asks P0 (whose first action is a recv on an empty
        # channel) to move first: not enabled.
        def receiver(ctx):
            ctx.recv("c")

        def sender(ctx):
            ctx.send("c", None)

        system = System([ProcessSpec(0, receiver), ProcessSpec(1, sender)])
        system.add_channel("c", 1, 0)
        with pytest.raises(ScheduleError):
            CooperativeEngine(ReplayPolicy([0, 1])).run(system)


class TestSchedulerVariety:
    def test_random_policies_give_different_schedules(self):
        # Two independent producer/consumer pairs: plenty of genuine
        # concurrency, so different seeds should find different
        # interleavings.  (Ping-pong would not do: its alternation is so
        # tight that only one maximal interleaving exists.)
        def producer(ctx):
            for i in range(3):
                ctx.send(f"d{ctx.rank}", i)

        def consumer(ctx):
            src = ctx.rank - 2
            ctx.store["got"] = [ctx.recv(f"d{src}") for _ in range(3)]

        def make_system():
            system = System(
                [
                    ProcessSpec(0, producer),
                    ProcessSpec(1, producer),
                    ProcessSpec(2, consumer),
                    ProcessSpec(3, consumer),
                ]
            )
            system.add_channel("d0", 0, 2)
            system.add_channel("d1", 1, 3)
            return system

        schedules = set()
        finals = set()
        for seed in range(8):
            result = CooperativeEngine(RandomPolicy(seed=seed)).run(make_system())
            schedules.add(tuple(result.schedule))
            finals.add(tuple(tuple(s.get("got", ())) for s in result.stores))
        assert len(schedules) >= 2
        # ... and yet the final state is unique (Theorem 1 in miniature).
        assert len(finals) == 1

    def test_run_to_block_minimises_switches(self):
        result = CooperativeEngine(RunToBlockPolicy()).run(
            ping_pong_system(rounds=4)
        )
        schedule = result.schedule
        switches = sum(1 for a, b in zip(schedule, schedule[1:]) if a != b)
        # Perfect ping-pong needs one switch per round boundary at most.
        assert switches <= 2 * 4 + 2


class TestConstantsInStores:
    """A read-only array in an initial store is a constant: every run
    gets the System's own array, never a copy, and cannot write it."""

    @staticmethod
    def system(write: bool = False):
        import numpy as np

        const = np.arange(8.0)
        const.flags.writeable = False

        def body(ctx):
            if write and ctx.rank == 1:
                ctx.store["c"][0] = -1.0
            ctx.store["v"] += ctx.store["c"]
            return float(ctx.store["v"].sum())

        return System(
            [
                ProcessSpec(r, body, store={"c": const, "v": np.zeros(8)})
                for r in range(2)
            ]
        )

    def test_fresh_store_shares_constants_and_copies_variables(self):
        spec = self.system().processes[0]
        fresh = spec.fresh_store()
        assert fresh["c"] is spec.store["c"]
        assert fresh["v"] is not spec.store["v"]

    @pytest.mark.parametrize(
        "engine", [ThreadedEngine, lambda: CooperativeEngine(RoundRobinPolicy())]
    )
    def test_result_holds_the_systems_own_constant(self, engine):
        system = self.system()
        for _ in range(2):  # runs stay independent
            result = engine().run(system)
            assert result.returns == [28.0, 28.0]
            for rank, spec in enumerate(system.processes):
                assert result.stores[rank]["c"] is spec.store["c"]
                assert result.stores[rank]["v"] is not spec.store["v"]
                assert (spec.store["v"] == 0.0).all()

    @pytest.mark.parametrize(
        "engine", [ThreadedEngine, lambda: CooperativeEngine(RoundRobinPolicy())]
    )
    def test_writing_a_constant_is_an_attributed_failure(self, engine):
        system = self.system(write=True)
        with pytest.raises(ProcessFailedError) as info:
            engine().run(system)
        assert info.value.rank == 1
        assert "read-only" in str(info.value.original)
        assert (system.processes[0].store["c"] == range(8)).all()
