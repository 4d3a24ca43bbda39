"""Happens-before relation and event identity tests."""

import pytest

from repro.runtime import (
    CooperativeEngine,
    ProcessSpec,
    RandomPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    System,
)
from repro.theory import HappensBefore, trace_keys
from repro.theory.events import check_same_action_sequences


def pipeline_system(n_values=2):
    """P0 -> P1 -> P2 pipeline; rich ordering structure."""

    def source(ctx):
        for i in range(n_values):
            ctx.send("a", i)

    def middle(ctx):
        for _ in range(n_values):
            ctx.send("b", ctx.recv("a") + 10)

    def sink(ctx):
        ctx.store["out"] = [ctx.recv("b") for _ in range(n_values)]

    system = System(
        [ProcessSpec(0, source), ProcessSpec(1, middle), ProcessSpec(2, sink)]
    )
    system.add_channel("a", 0, 1)
    system.add_channel("b", 1, 2)
    return system


def traced(system, policy=None):
    return CooperativeEngine(policy or RoundRobinPolicy(), trace=True).run(system)


class TestProgramOrder:
    def test_same_rank_events_ordered(self):
        result = traced(pipeline_system())
        hb = HappensBefore(result.trace)
        by_rank = {}
        for i, ev in enumerate(result.trace):
            by_rank.setdefault(ev.rank, []).append(i)
        for positions in by_rank.values():
            for a, b in zip(positions, positions[1:]):
                assert hb.precedes(a, b)
                assert not hb.precedes(b, a)


class TestChannelOrder:
    def test_send_precedes_matching_recv(self):
        result = traced(pipeline_system())
        hb = HappensBefore(result.trace)
        sends = {}
        for i, ev in enumerate(result.trace):
            if ev.kind == "send":
                sends[(ev.channel, ev.seq)] = i
        for i, ev in enumerate(result.trace):
            if ev.kind == "recv":
                assert hb.precedes(sends[(ev.channel, ev.seq)], i)

    def test_transitivity_across_pipeline(self):
        # First send of P0 must precede the last recv of P2.
        result = traced(pipeline_system(n_values=3))
        hb = HappensBefore(result.trace)
        first_send = next(
            i for i, e in enumerate(result.trace) if e.rank == 0 and e.kind == "send"
        )
        last_recv = max(
            i for i, e in enumerate(result.trace) if e.rank == 2 and e.kind == "recv"
        )
        assert hb.precedes(first_send, last_recv)


class TestIndependence:
    def test_unrelated_processes_independent(self):
        def loner(ctx):
            ctx.step("alone")

        system = System([ProcessSpec(0, loner), ProcessSpec(1, loner)])
        result = traced(system)
        hb = HappensBefore(result.trace)
        assert hb.independent(0, 1)

    def test_independent_is_irreflexive(self):
        result = traced(pipeline_system())
        hb = HappensBefore(result.trace)
        for i in range(len(result.trace)):
            assert not hb.independent(i, i)


class TestLinearExtensions:
    def test_own_order_is_admitted(self):
        result = traced(pipeline_system())
        hb = HappensBefore(result.trace)
        assert hb.admits_order(list(range(len(result.trace))))

    def test_reversed_order_rejected(self):
        result = traced(pipeline_system())
        hb = HappensBefore(result.trace)
        assert not hb.admits_order(list(range(len(result.trace)))[::-1])

    def test_other_schedule_is_linear_extension(self):
        # Another legal interleaving, mapped to source positions, must be
        # admitted by the source's happens-before relation.
        r1 = traced(pipeline_system(n_values=2), RoundRobinPolicy())
        r2 = traced(pipeline_system(n_values=2), RunToBlockPolicy())
        keys1 = trace_keys(r1.trace)
        keys2 = trace_keys(r2.trace)
        pos1 = {k: i for i, k in enumerate(keys1)}
        order = [pos1[k] for k in keys2]
        hb = HappensBefore(r1.trace)
        assert hb.admits_order(order)


class TestActionSequences:
    @pytest.mark.parametrize("seed", range(5))
    def test_per_process_sequences_identical_across_schedules(self, seed):
        base = traced(pipeline_system(n_values=3), RoundRobinPolicy())
        other = traced(pipeline_system(n_values=3), RandomPolicy(seed=seed))
        assert check_same_action_sequences(base.trace, other.trace)

    def test_different_programs_detected(self):
        a = traced(pipeline_system(n_values=2))
        b = traced(pipeline_system(n_values=3))
        assert not check_same_action_sequences(a.trace, b.trace)
