"""Sleep-set partial-order reduction tests."""

import pytest

from repro.runtime import ProcessSpec, System
from repro.theory import enumerate_interleavings
from repro.theory.por import enumerate_reduced


def independent_steps(nprocs=3, steps=2):
    def body(ctx):
        for i in range(steps):
            ctx.step(f"s{i}")

    return System([ProcessSpec(r, body) for r in range(nprocs)])


def exchange_pair():
    def body(ctx):
        other = 1 - ctx.rank
        ctx.send(f"c{ctx.rank}", ctx.rank)
        ctx.store["got"] = ctx.recv(f"c{other}")

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("c0", 0, 1)
    system.add_channel("c1", 1, 0)
    return system


def producer_consumer(n=3):
    def producer(ctx):
        for i in range(n):
            ctx.send("c", i)

    def consumer(ctx):
        ctx.store["got"] = [ctx.recv("c") for _ in range(n)]

    system = System([ProcessSpec(0, producer), ProcessSpec(1, consumer)])
    system.add_channel("c", 0, 1)
    return system


class TestReductionSoundness:
    @pytest.mark.parametrize(
        "factory",
        [independent_steps, exchange_pair, producer_consumer],
        ids=["steps", "exchange", "prodcons"],
    )
    def test_same_final_states_as_full_enumeration(self, factory):
        system = factory()
        full = enumerate_interleavings(system)
        reduced = enumerate_reduced(system)
        assert set(reduced.digests) == set(full.digests)
        assert reduced.determinate == full.determinate

    def test_visits_at_least_one_schedule(self):
        reduced = enumerate_reduced(independent_steps())
        assert reduced.visited >= 1

    def test_visited_schedules_are_legal(self):
        from repro.runtime import CooperativeEngine, ReplayPolicy

        system = exchange_pair()
        reduced = enumerate_reduced(system)
        for schedule in reduced.schedules:
            CooperativeEngine(ReplayPolicy(list(schedule))).run(system)


class TestReductionPower:
    def test_collapses_independent_steps_to_one(self):
        # 3 procs x 2 steps: 6!/(2!2!2!) = 90 interleavings, 1 class.
        system = independent_steps(3, 2)
        full = enumerate_interleavings(system)
        reduced = enumerate_reduced(system)
        assert full.interleavings == 90
        assert reduced.visited == 1

    def test_collapses_exchange_to_one(self):
        system = exchange_pair()
        full = enumerate_interleavings(system)
        reduced = enumerate_reduced(system)
        assert full.interleavings == 4
        assert reduced.visited == 1

    def test_dependent_chain_not_over_pruned(self):
        # producer/consumer share one channel: their actions are
        # pairwise dependent, so reduction cannot prune much — but the
        # single trace class still collapses to one schedule.
        system = producer_consumer(2)
        reduced = enumerate_reduced(system)
        assert reduced.visited >= 1
        assert reduced.determinate

    def test_exponentially_fewer_runs_than_interleavings(self):
        system = independent_steps(3, 3)
        full = enumerate_interleavings(system)
        reduced = enumerate_reduced(system)
        assert reduced.visited == 1
        assert reduced.runs < full.interleavings

    def test_three_by_three_steps_one_schedule_few_runs(self):
        # 9!/(3!3!3!) = 1680 interleavings of one class: one leaf, and
        # branches ended at all-asleep nodes keep the runs down too.
        reduced = enumerate_reduced(independent_steps(3, 3))
        assert reduced.visited == 1
        assert reduced.runs <= 64

    def test_summary(self):
        text = enumerate_reduced(exchange_pair()).summary()
        assert "representative" in text


def fan_in(n=2):
    def producer(ctx):
        for i in range(n):
            ctx.step("make")
            ctx.send(f"in{ctx.rank}", 100 * ctx.rank + i)

    def consumer(ctx):
        got = []
        for _ in range(n):
            got.append(ctx.recv("in0"))
            got.append(ctx.recv("in1"))
        ctx.store["got"] = got

    system = System(
        [ProcessSpec(0, producer), ProcessSpec(1, producer), ProcessSpec(2, consumer)]
    )
    system.add_channel("in0", 0, 2)
    system.add_channel("in1", 1, 2)
    return system


def ring(nprocs=3):
    def body(ctx):
        nxt = f"ring{ctx.rank}"
        prv = f"ring{(ctx.rank - 1) % nprocs}"
        ctx.step("init")
        if ctx.rank == 0:
            ctx.send(nxt, 1)
            ctx.store["token"] = ctx.recv(prv)
        else:
            token = ctx.recv(prv)
            ctx.store["seen"] = token
            ctx.send(nxt, token + ctx.rank)

    system = System([ProcessSpec(r, body) for r in range(nprocs)])
    for r in range(nprocs):
        system.add_channel(f"ring{r}", r, (r + 1) % nprocs)
    return system


class TestReductionSoundnessRingFanIn:
    """Ring and fan-in topologies: the sleep-set reduction visits the
    exact same set of final-state digests as full enumeration.  (The
    schedule explorer uses no sleep sets; its fingerprint pruning is
    checked in tests/explore/test_strategies.py.)"""

    @pytest.mark.parametrize(
        "factory", [ring, fan_in], ids=["ring3", "fanin"]
    )
    def test_same_final_states_as_full_enumeration(self, factory):
        system = factory()
        full = enumerate_interleavings(system)
        reduced = enumerate_reduced(system)
        assert set(reduced.digests) == set(full.digests)
        assert reduced.determinate and full.determinate

    def test_fan_in_prunes_producer_orderings(self):
        # the two producers' actions are pairwise independent, so the
        # reduced search must visit strictly fewer schedules than the
        # full enumeration
        system = fan_in()
        full = enumerate_interleavings(system)
        reduced = enumerate_reduced(system)
        assert reduced.visited < full.interleavings

    def test_independent_actions_is_public(self):
        # the predicate enumerate_reduced hands the schedule-tree walk
        # is exported from the theory package
        from repro.theory import independent_actions
        from repro.theory.por import independent_actions as por_predicate

        assert independent_actions is por_predicate
