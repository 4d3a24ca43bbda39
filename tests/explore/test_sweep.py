"""Real-engine fault sweeps: genuine SIGKILLs, real-time delays."""

import pytest

from repro.explore import build_target, fault_sweep_engine, parse_fault_plan
from repro.runtime import CooperativeEngine
from repro.theory import state_digest


@pytest.fixture(scope="module")
def prodcons_baseline():
    return state_digest(
        CooperativeEngine().run(build_target("prodcons")())
    )


class TestMultiprocessSweep:
    def test_sigkill_surfaces_clean_annotated_failure(
        self, prodcons_baseline
    ):
        plan = parse_fault_plan("kill:0@2")
        outcomes = fault_sweep_engine(
            build_target("prodcons"),
            plan,
            "multiprocess",
            runs=2,
            baseline_digest=prodcons_baseline,
            target="prodcons",
        )
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.kind == "crash"
            assert outcome.rank == 0
            # the worker died by SIGKILL and reported nothing; the
            # provenance is re-annotated from the plan
            assert outcome.step == 2
            assert outcome.fault_id == "kill:0@2"

    def test_real_delay_is_bitwise_identical(self, prodcons_baseline):
        plan = parse_fault_plan("delay:stream#1~2")
        outcomes = fault_sweep_engine(
            build_target("prodcons"),
            plan,
            "multiprocess",
            runs=2,
            baseline_digest=prodcons_baseline,
            target="prodcons",
        )
        for outcome in outcomes:
            assert outcome.kind == "ok"
            assert outcome.digest == prodcons_baseline


@pytest.mark.slow
class TestSocketSweep:
    def test_sigkill_on_socket_engine(self, prodcons_baseline):
        plan = parse_fault_plan("kill:1@3")
        outcomes = fault_sweep_engine(
            build_target("prodcons"),
            plan,
            "socket",
            runs=1,
            baseline_digest=prodcons_baseline,
            target="prodcons",
        )
        (outcome,) = outcomes
        assert outcome.kind == "crash"
        assert outcome.rank == 1
        assert outcome.fault_id == "kill:1@3"

    def test_sigkill_inside_the_need_constants_exchange(
        self, prodcons_baseline
    ):
        """The daemon hosting rank 1 dies decoding the constants it
        asked for; the first failure surfaced may be its peer's."""
        plan = parse_fault_plan("kill:1@need")
        (outcome,) = fault_sweep_engine(
            build_target("prodcons"),
            plan,
            "socket",
            runs=1,
            baseline_digest=prodcons_baseline,
            target="prodcons",
        )
        assert outcome.kind == "crash"
        if outcome.rank == 1:
            assert outcome.fault_id == "kill:1@need"
