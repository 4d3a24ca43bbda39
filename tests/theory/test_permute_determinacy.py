"""Permutation certificates, determinacy checking, exhaustive enumeration."""

import pytest

from repro.runtime import (
    CooperativeEngine,
    ProcessSpec,
    RandomPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    System,
)
from repro.theory import (
    check_determinacy,
    enumerate_interleavings,
    permute_interleaving,
    state_digest,
)
from repro.theory.permute import PermutationError


def exchange_system():
    """Two processes exchange values then combine; several legal orders."""

    def body(ctx):
        other = 1 - ctx.rank
        ch_out = "c01" if ctx.rank == 0 else "c10"
        ch_in = "c10" if ctx.rank == 0 else "c01"
        ctx.send(ch_out, ctx.rank * 100)
        got = ctx.recv(ch_in)
        ctx.store["combined"] = got + ctx.rank

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("c01", 0, 1)
    system.add_channel("c10", 1, 0)
    return system


def traced(system, policy):
    return CooperativeEngine(policy, trace=True).run(system)


class TestPermutation:
    def test_permute_identity_has_zero_swaps(self):
        r = traced(exchange_system(), RoundRobinPolicy())
        cert = permute_interleaving(r.trace, r.trace)
        assert cert.num_swaps == 0

    def test_permute_between_distinct_schedules(self):
        r1 = traced(exchange_system(), RoundRobinPolicy())
        r2 = traced(exchange_system(), RunToBlockPolicy())
        assert r1.schedule != r2.schedule
        cert = permute_interleaving(r1.trace, r2.trace)
        assert cert.num_swaps > 0
        assert "adjacent swaps" in cert.summary()

    @pytest.mark.parametrize("seed", range(6))
    def test_permute_any_random_schedule_into_round_robin(self, seed):
        r1 = traced(exchange_system(), RandomPolicy(seed=seed))
        r2 = traced(exchange_system(), RoundRobinPolicy())
        cert = permute_interleaving(r1.trace, r2.trace)
        # Certificate internally verified every swap independent.
        assert cert.num_swaps >= 0

    def test_traces_of_different_systems_rejected(self):
        def solo(ctx):
            ctx.step()

        other = System([ProcessSpec(0, solo), ProcessSpec(1, solo)])
        r1 = traced(exchange_system(), RoundRobinPolicy())
        r2 = traced(other, RoundRobinPolicy())
        with pytest.raises(PermutationError):
            permute_interleaving(r1.trace, r2.trace)


class TestStateDigest:
    def test_same_result_same_digest(self):
        r1 = traced(exchange_system(), RoundRobinPolicy())
        r2 = traced(exchange_system(), RunToBlockPolicy())
        assert state_digest(r1) == state_digest(r2)

    def test_different_stores_different_digest(self):
        import numpy as np

        def a(ctx):
            ctx.store["x"] = np.array([1.0, 2.0])

        def b(ctx):
            ctx.store["x"] = np.array([1.0, 2.0 + 1e-16])

        ra = CooperativeEngine().run(System([ProcessSpec(0, a)]))
        rb = CooperativeEngine().run(System([ProcessSpec(0, b)]))
        # 2.0 + 1e-16 rounds back to 2.0: digests equal.
        assert state_digest(ra) == state_digest(rb)

        def c(ctx):
            ctx.store["x"] = np.array([1.0, 2.0000001])

        rc = CooperativeEngine().run(System([ProcessSpec(0, c)]))
        assert state_digest(ra) != state_digest(rc)

    def test_digest_distinguishes_returns(self):
        def mk(v):
            def body(ctx):
                return v

            return body

        r1 = CooperativeEngine().run(System([ProcessSpec(0, mk(1))]))
        r2 = CooperativeEngine().run(System([ProcessSpec(0, mk(2))]))
        assert state_digest(r1) != state_digest(r2)


class TestDeterminacy:
    def test_conforming_system_is_determinate(self):
        report = check_determinacy(exchange_system, n_random=8, threaded_runs=2)
        assert report.determinate, report.summary()
        assert report.runs == 8 + 3 + 2  # randoms + 3 fixed policies + threaded
        assert "DETERMINATE" in report.summary()

    def test_report_counts_distinct_schedules(self):
        report = check_determinacy(exchange_system, n_random=8, threaded_runs=0)
        assert report.distinct_schedules >= 2


class TestEnumeration:
    def test_enumerates_all_interleavings_of_exchange(self):
        result = enumerate_interleavings(exchange_system())
        # 4 actions: s0, s1, r0, r1.  Program order: s0<r0, s1<r1;
        # channel order: s0<r1, s1<r0.  Hence both sends precede both
        # receives: 2 send orders x 2 receive orders = 4 interleavings.
        assert result.interleavings == 4
        assert result.determinate
        assert {len(s) for s in result.schedules} == {4}
        assert len(set(result.schedules)) == result.interleavings

    def test_single_process_has_one_interleaving(self):
        def solo(ctx):
            ctx.step()
            ctx.step()

        system = System([ProcessSpec(0, solo)])
        result = enumerate_interleavings(system)
        assert result.interleavings == 1

    def test_independent_steps_count_binomial(self):
        # Two processes, two steps each: C(4,2) = 6 interleavings.
        def two_steps(ctx):
            ctx.step()
            ctx.step()

        system = System([ProcessSpec(0, two_steps), ProcessSpec(1, two_steps)])
        result = enumerate_interleavings(system)
        assert result.interleavings == 6
        assert result.determinate

    def test_overflow_guard(self):
        from repro.theory.enumerate import EnumerationOverflow

        def many_steps(ctx):
            for _ in range(6):
                ctx.step()

        system = System(
            [ProcessSpec(0, many_steps), ProcessSpec(1, many_steps)]
        )
        with pytest.raises(EnumerationOverflow):
            enumerate_interleavings(system, max_interleavings=10)
