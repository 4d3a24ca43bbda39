"""Deadlock diagnostics and trace-rendering coverage."""

import pytest

from repro.errors import DeadlockError
from repro.runtime import (
    CooperativeEngine,
    ProcessSpec,
    RoundRobinPolicy,
    System,
)
from repro.runtime.deadlock import explain_deadlock, find_cycles, wait_for_graph


def circular_system(n=3):
    """n processes each waiting on the previous: a circular wait."""

    def body(ctx):
        prev = (ctx.rank - 1) % ctx.nprocs
        got = ctx.recv(f"ring{prev}")
        ctx.send(f"ring{ctx.rank}", got)

    system = System([ProcessSpec(r, body) for r in range(n)])
    for r in range(n):
        system.add_channel(f"ring{r}", r, (r + 1) % n)
    return system


def starved_system():
    """P1 waits on a channel whose writer sends nothing: no cycle."""

    def writer(ctx):
        pass  # terminates without sending

    def reader(ctx):
        ctx.recv("c")

    system = System([ProcessSpec(0, writer), ProcessSpec(1, reader)])
    system.add_channel("c", 0, 1)
    return system


class TestDeadlockDiagnostics:
    def deadlock_of(self, system):
        with pytest.raises(DeadlockError) as exc_info:
            CooperativeEngine().run(system)
        return exc_info.value

    def test_wait_for_graph_edges(self):
        system = circular_system(3)
        error = self.deadlock_of(circular_system(3))
        graph = wait_for_graph(error, system)
        assert graph == {0: [2], 1: [0], 2: [1]}

    def test_cycle_detected(self):
        system = circular_system(4)
        error = self.deadlock_of(circular_system(4))
        cycles = find_cycles(wait_for_graph(error, system))
        assert len(cycles) == 1
        assert sorted(cycles[0]) == [0, 1, 2, 3]

    def test_explain_mentions_cycle(self):
        system = circular_system(3)
        error = self.deadlock_of(circular_system(3))
        text = explain_deadlock(error, system)
        assert "circular wait" in text
        assert "P0" in text and "P2" in text

    def test_cycle_reported_once(self):
        system = circular_system(3)
        error = self.deadlock_of(circular_system(3))
        cycles = find_cycles(wait_for_graph(error, system))
        assert len(cycles) == 1

    def test_find_cycles_acyclic(self):
        assert find_cycles({0: [1], 1: [2]}) == []


class TestStarvationIsNotCircular:
    def test_threaded_reports_failure(self):
        # Under threads, the writer's termination closes the channel,
        # so the reader fails rather than deadlocks.
        from repro.errors import ProcessFailedError
        from repro.runtime import ThreadedEngine

        with pytest.raises(ProcessFailedError):
            ThreadedEngine().run(starved_system())

    def test_cooperative_detects_as_deadlock_without_cycle(self):
        with pytest.raises(DeadlockError) as exc_info:
            CooperativeEngine().run(starved_system())
        text = explain_deadlock(exc_info.value, starved_system())
        assert "no circular wait" in text


class TestTraceRendering:
    def traced(self):
        def body(ctx):
            ctx.step("warm")
            if ctx.rank == 0:
                ctx.send("c", 1)
            else:
                ctx.recv("c")

        system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
        system.add_channel("c", 0, 1)
        return CooperativeEngine(RoundRobinPolicy(), trace=True).run(system)

    def test_render_lines(self):
        result = self.traced()
        text = result.trace.render()
        assert "P0:send(c#0)" in text
        assert "P1:recv(c#0)" in text
        assert "P0:warm" in text

    def test_brief_format(self):
        result = self.traced()
        briefs = [e.brief() for e in result.trace]
        assert briefs[0].startswith("P0:") or briefs[0].startswith("P1:")

    def test_by_rank_program_order(self):
        result = self.traced()
        p0 = result.trace.by_rank(0)
        assert [e.kind for e in p0] == ["step", "send"]


class TestArchetypeRegistry:
    def test_get_mesh_and_pipeline(self):
        from repro.archetypes import get_archetype

        mesh = get_archetype("mesh")
        pipeline = get_archetype("pipeline")
        assert mesh.name == "mesh" and pipeline.name == "pipeline"
        assert "boundary_exchange" in [op.name for op in mesh.operations]

    def test_unknown_archetype(self):
        from repro.archetypes import get_archetype
        from repro.errors import ArchetypeError

        with pytest.raises(ArchetypeError, match="unknown archetype"):
            get_archetype("torus")

    def test_describe(self):
        from repro.archetypes import get_archetype

        text = get_archetype("mesh").describe()
        assert "[exchange] boundary_exchange" in text

    def test_invalid_operation_kind(self):
        from repro.archetypes import ArchetypeOperation
        from repro.errors import ArchetypeError

        with pytest.raises(ArchetypeError, match="unknown operation kind"):
            ArchetypeOperation("x", "magic", "nope")


class TestStructuredDeadlockReport:
    """The cooperative engine attaches a structured DeadlockReport to
    both the error and the partial RunResult, naming each blocked
    rank's channel and peer."""

    def deadlock_of(self, system):
        with pytest.raises(DeadlockError) as exc_info:
            CooperativeEngine().run(system)
        return exc_info.value

    def test_message_names_channel_and_peer(self):
        err = self.deadlock_of(circular_system(3))
        # every cycle member's blocked channel + the rank it waits for
        assert "P0 blocked on 'ring2' (waits for P2)" in str(err)
        assert "circular wait" in str(err)

    def test_blocked_edges_exposed(self):
        err = self.deadlock_of(circular_system(3))
        assert err.blocked == {
            0: ("ring2", 2),
            1: ("ring0", 0),
            2: ("ring1", 1),
        }
        assert err.cycles and set(err.cycles[0]) == {0, 1, 2}

    def test_partial_result_carries_report(self):
        err = self.deadlock_of(circular_system(3))
        assert err.result is not None
        report = err.result.deadlock
        assert report is not None
        assert report.cycles
        assert report.blocked == err.blocked
        assert "circular wait" in report.describe()

    def test_starvation_report_has_no_cycle(self):
        err = self.deadlock_of(starved_system())
        assert err.blocked == {1: ("c", 0)}
        assert not err.cycles
        report = err.result.deadlock
        assert not report.cycles

    def test_explorer_classifies_deadlock_distinctly(self):
        from repro.explore import run_controlled
        from repro.runtime import ScheduleController

        controller = ScheduleController()
        outcome = run_controlled(
            circular_system(3), controller, controller
        )
        assert outcome.kind == "deadlock"
        assert "circular wait" in outcome.detail
