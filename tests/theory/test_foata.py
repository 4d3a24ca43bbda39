"""Foata normal form tests: schedule invariance and structure."""

import pytest

from repro.runtime import (
    CooperativeEngine,
    ProcessSpec,
    RandomPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    System,
)
from repro.theory import enumerate_interleavings, walk_schedules
from repro.theory.determinacy import state_digest
from repro.theory.foata import foata_normal_form


def independent_system(nprocs=3, steps=2):
    def body(ctx):
        for i in range(steps):
            ctx.step(f"s{i}")

    return System([ProcessSpec(r, body) for r in range(nprocs)])


def chain_system(length=4):
    """P0 -> P1 -> ... a pure dependence chain (one token)."""

    def body(ctx):
        if ctx.rank > 0:
            ctx.recv(f"c{ctx.rank - 1}")
        if ctx.rank < ctx.nprocs - 1:
            ctx.send(f"c{ctx.rank}", ctx.rank)

    system = System([ProcessSpec(r, body) for r in range(length)])
    for r in range(length - 1):
        system.add_channel(f"c{r}", r, r + 1)
    return system


def traced(system, policy):
    return CooperativeEngine(policy, trace=True).run(system).trace


def trace_classes(system) -> int:
    """Distinct Foata forms over every maximal interleaving: the number
    of Mazurkiewicz trace classes the enumeration visits."""
    forms = set()

    def run(controller):
        result = CooperativeEngine(controller, trace=True).run(system)
        forms.add(foata_normal_form(result.trace))
        return state_digest(result)

    walk_schedules(run, max_leaves=10_000)
    return len(forms)


class TestScheduleInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_form_for_every_schedule(self, seed):
        base = foata_normal_form(traced(independent_system(), RoundRobinPolicy()))
        other = foata_normal_form(
            traced(independent_system(), RandomPolicy(seed=seed))
        )
        assert base == other

    def test_invariant_over_exhaustive_enumeration(self):
        system = independent_system(nprocs=2, steps=2)
        result = enumerate_interleavings(system)
        forms = set()
        from repro.runtime import ReplayPolicy

        for schedule in result.schedules:
            trace = traced(independent_system(nprocs=2, steps=2),
                           ReplayPolicy(list(schedule)))
            forms.add(foata_normal_form(trace))
        assert len(forms) == 1


class TestStructure:
    def test_independent_steps_layer_by_local_index(self):
        form = foata_normal_form(
            traced(independent_system(nprocs=3, steps=2), RoundRobinPolicy())
        )
        # no cross-process edges: layers are exactly the local indices
        assert form.depth == 2
        assert form.width == 3
        assert form.layers[0] == ((0, 0), (1, 0), (2, 0))

    def test_chain_is_fully_sequential(self):
        form = foata_normal_form(traced(chain_system(4), RoundRobinPolicy()))
        # send/recv pairs along the chain: every layer has one event
        assert form.width == 1
        assert form.depth == form.total_events

    def test_depth_is_critical_path(self):
        # ping-pong: strictly alternating -> depth == total events
        def p0(ctx):
            ctx.send("a", 1)
            ctx.recv("b")

        def p1(ctx):
            ctx.send("b", ctx.recv("a"))

        system = System([ProcessSpec(0, p0), ProcessSpec(1, p1)])
        system.add_channel("a", 0, 1)
        system.add_channel("b", 1, 0)
        form = foata_normal_form(traced(system, RoundRobinPolicy()))
        # a-send | (a-recv, b-send ordered) ... compute expected: events:
        # P0:send(a), P1:recv(a), P1:send(b), P0:recv(b) — a chain with
        # one exception: P1:send(b) depends on recv(a) (program order).
        assert form.depth == 4
        assert form.width == 1

    def test_profile(self):
        form = foata_normal_form(
            traced(independent_system(nprocs=4, steps=3), RunToBlockPolicy())
        )
        assert [len(layer) for layer in form.layers] == [4, 4, 4]

    def test_describe(self):
        form = foata_normal_form(
            traced(independent_system(nprocs=2, steps=1), RoundRobinPolicy())
        )
        text = form.describe()
        assert "layers" in text and "P0#0" in text


class TestTraceClasses:
    def test_conforming_system_is_one_class(self):
        assert trace_classes(independent_system(nprocs=2, steps=2)) == 1
        assert trace_classes(chain_system(3)) == 1

    def test_exchange_system_is_one_class(self):
        def body(ctx):
            other = 1 - ctx.rank
            ctx.send(f"c{ctx.rank}", ctx.rank)
            ctx.store["got"] = ctx.recv(f"c{other}")

        system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
        system.add_channel("c0", 0, 1)
        system.add_channel("c1", 1, 0)
        assert trace_classes(system) == 1
