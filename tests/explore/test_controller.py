"""ScheduleController: recording, steering, fingerprinting."""

import pytest

from repro.errors import ScheduleError
from repro.explore import run_controlled, state_fingerprint
from repro.explore.fixtures import exchange2_system, ring3_system
from repro.runtime import CooperativeEngine, ScheduleController
from repro.theory import state_digest


class TestRecording:
    def test_logs_every_decision_with_enabled_set(self):
        controller = ScheduleController()
        run = CooperativeEngine(controller).run(exchange2_system())
        assert controller.log, "no decisions recorded"
        for chosen, enabled in controller.log:
            assert chosen in [a.rank for a in enabled]
        # every action of the run corresponds to one logged decision
        assert len(controller.schedule) == len(controller.log)
        assert run.stores[0]["peer"] == 20

    def test_fingerprints_align_with_log(self):
        controller = ScheduleController(fingerprint=state_fingerprint)
        CooperativeEngine(controller).run(ring3_system())
        assert len(controller.fingerprints) == len(controller.log)
        assert all(fp is not None for fp in controller.fingerprints)

    def test_fingerprints_off_by_default(self):
        controller = ScheduleController()
        CooperativeEngine(controller).run(ring3_system())
        assert all(fp is None for fp in controller.fingerprints)


class TestSteering:
    def test_prefix_forces_the_recorded_path(self):
        free = ScheduleController()
        CooperativeEngine(free).run(ring3_system())
        replay = ScheduleController(free.schedule)
        CooperativeEngine(replay).run(ring3_system())
        assert replay.schedule == free.schedule

    def test_same_prefix_same_digest(self):
        controller = ScheduleController()
        first = CooperativeEngine(controller).run(ring3_system())
        again = CooperativeEngine(
            ScheduleController(controller.schedule)
        ).run(ring3_system())
        assert state_digest(first) == state_digest(again)

    def test_illegal_prefix_raises_schedule_error(self):
        # rank 2 does not exist in the 2-process exchange
        controller = ScheduleController([2])
        with pytest.raises(ScheduleError, match="not enabled"):
            CooperativeEngine(controller).run(exchange2_system())


class TestRunControlled:
    def test_ok_outcome_carries_digest_and_schedule(self):
        controller = ScheduleController()
        outcome = run_controlled(
            exchange2_system(), controller, controller
        )
        assert outcome.kind == "ok" and outcome.ok
        assert outcome.digest
        assert outcome.schedule == tuple(controller.schedule)

    def test_bound_outcome_on_tiny_action_budget(self):
        controller = ScheduleController()
        outcome = run_controlled(
            ring3_system(), controller, controller, max_steps=2
        )
        assert outcome.kind == "bound"
        assert not outcome.ok
