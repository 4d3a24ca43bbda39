"""Fault plans: parsing, application, and engine behaviour under faults."""

import pickle

import pytest

from repro.errors import (
    ProcessFailedError,
    ReproError,
    wrap_process_failure,
)
from repro.explore import (
    DelayFault,
    FaultedPolicy,
    FaultPlan,
    InjectedKill,
    KillFault,
    apply_faults,
    parse_fault_plan,
)
from repro.explore.fixtures import prodcons_system, ring3_system
from repro.runtime import CooperativeEngine, ScheduleController
from repro.theory import state_digest


class TestParsing:
    def test_kill_and_delay_specs(self):
        plan = parse_fault_plan("kill:1@3,delay:c0#0~6")
        assert plan.kills == (KillFault(1, 3),)
        assert plan.delays == (DelayFault("c0", 0, 6),)

    def test_default_hold(self):
        plan = parse_fault_plan("delay:stream#2")
        assert plan.delays[0].hold == 4

    @pytest.mark.parametrize(
        "spec", ["kill:x@1", "kill:1", "delay:c0", "boom:1@2", "delay:#1"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ReproError, match="bad fault spec"):
            parse_fault_plan(spec)

    def test_round_trips_through_dict(self):
        plan = parse_fault_plan("kill:0@2,delay:stream#1~3")
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_kill_at_the_need_exchange(self):
        plan = parse_fault_plan("kill:1@need")
        assert plan.describe() == "kill:1@need"
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.kills[0].step < 0  # before the body's action 0

    def test_describe(self):
        assert parse_fault_plan("kill:0@2").describe() == "kill:0@2"
        assert FaultPlan().describe() == "none"
        assert not FaultPlan()


class TestValidation:
    def test_unknown_rank_rejected(self):
        with pytest.raises(ReproError, match="rank 9 does not exist"):
            apply_faults(prodcons_system(), FaultPlan(kills=(KillFault(9, 0),)))

    def test_kill_at_need_exists_on_process_engines_only(self):
        plan = parse_fault_plan("kill:1@need")
        with pytest.raises(ReproError, match="needs a process engine"):
            apply_faults(prodcons_system(), plan)
        system = prodcons_system()
        faulted = apply_faults(system, plan, real_kill=True)
        # A planted constant, not a wrapped body; the caller's store is
        # left as it was.
        victim, original = faulted.processes[1], system.processes[1]
        assert victim.body is original.body
        (planted,) = set(victim.store) - set(original.store)
        assert not victim.store[planted].flags.writeable
        assert faulted.processes[0].store is system.processes[0].store

    def test_unknown_channel_rejected(self):
        with pytest.raises(ReproError, match="does not exist"):
            apply_faults(
                prodcons_system(),
                FaultPlan(delays=(DelayFault("nope", 0),)),
            )


class TestInjectedKillWire:
    def test_injected_kill_pickles(self):
        exc = InjectedKill(1, 3, "kill:1@3")
        back = pickle.loads(pickle.dumps(exc))
        assert (back.rank, back.inject_step, back.fault_id) == (
            1,
            3,
            "kill:1@3",
        )

    def test_wrap_copies_fault_provenance(self):
        wrapped = wrap_process_failure(1, InjectedKill(1, 3, "kill:1@3"))
        assert isinstance(wrapped, ProcessFailedError)
        assert wrapped.step == 3
        assert wrapped.fault_id == "kill:1@3"
        assert "injected fault" in str(wrapped)


class TestCooperativeKill:
    def test_kill_surfaces_clean_process_failed_error(self):
        system = apply_faults(
            prodcons_system(), parse_fault_plan("kill:0@2")
        )
        with pytest.raises(ProcessFailedError) as info:
            CooperativeEngine().run(system)
        assert info.value.rank == 0
        assert info.value.step == 2
        assert info.value.fault_id == "kill:0@2"

    def test_kill_never_reported_as_deadlock(self):
        # The victim's peers block forever on their receives; the
        # engine must classify that as the crash, not a deadlock.
        system = apply_faults(ring3_system(), parse_fault_plan("kill:0@1"))
        with pytest.raises(ProcessFailedError):
            CooperativeEngine().run(system)

    def test_kill_after_last_action_is_benign(self):
        # rank 0 of prodcons performs 6 actions (3 step + 3 send); a
        # kill planted past the end never fires.
        baseline = state_digest(CooperativeEngine().run(prodcons_system()))
        system = apply_faults(
            prodcons_system(), parse_fault_plan("kill:0@99")
        )
        run = CooperativeEngine().run(system)
        assert state_digest(run) == baseline


class TestCooperativeDelay:
    def test_delay_within_slack_is_bitwise_identical(self):
        baseline = state_digest(CooperativeEngine().run(prodcons_system()))
        plan = parse_fault_plan("delay:stream#1~3")
        controller = ScheduleController()
        policy = FaultedPolicy(controller, plan.delays)
        run = CooperativeEngine(policy).run(prodcons_system())
        assert state_digest(run) == baseline

    def test_delay_actually_perturbs_the_schedule(self):
        # Delaying rank 1's first delivery on ring0 redirects min-rank
        # scheduling to rank 2 for a few decisions — the schedule
        # changes, the final state must not.
        free = ScheduleController()
        baseline = state_digest(
            CooperativeEngine(free).run(ring3_system())
        )
        plan = parse_fault_plan("delay:ring0#0~4")
        held = ScheduleController()
        run = CooperativeEngine(
            FaultedPolicy(held, plan.delays)
        ).run(ring3_system())
        assert held.schedule != free.schedule
        assert state_digest(run) == baseline

    def test_mask_never_empties_enabled_set(self):
        # Delay the only possible action: the policy must fall back to
        # granting it rather than deadlocking the run.
        plan = parse_fault_plan("delay:stream#0~999")

        def run():
            controller = ScheduleController()
            return CooperativeEngine(
                FaultedPolicy(controller, plan.delays)
            ).run(prodcons_system())

        run()  # completes despite the (unsatisfiable) hold
