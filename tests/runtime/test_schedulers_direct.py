"""Direct unit tests for scheduling policies (no engine in the loop)."""

import pytest

from repro.errors import ScheduleError
from repro.runtime.schedulers import (
    MinRankPolicy,
    PendingAction,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    ScheduleController,
    SendsFirstPolicy,
)


def actions(*specs):
    """specs: (rank, kind) pairs."""
    return [PendingAction(rank, kind, None) for rank, kind in specs]


class TestRoundRobin:
    def test_cycles(self):
        p = RoundRobinPolicy()
        enabled = actions((0, "send"), (1, "send"), (2, "send"))
        assert [p.choose(enabled) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_skips_disabled(self):
        p = RoundRobinPolicy()
        assert p.choose(actions((1, "send"), (3, "send"))) == 1
        assert p.choose(actions((0, "send"), (3, "send"))) == 3
        assert p.choose(actions((0, "send"))) == 0

    def test_reset(self):
        p = RoundRobinPolicy()
        p.choose(actions((0, "send"), (1, "send")))
        p.reset()
        assert p.choose(actions((0, "send"), (1, "send"))) == 0


class TestRandom:
    def test_seeded_reproducible(self):
        enabled = actions((0, "send"), (1, "send"), (2, "send"))
        a = RandomPolicy(seed=5)
        b = RandomPolicy(seed=5)
        assert [a.choose(enabled) for _ in range(20)] == [
            b.choose(enabled) for _ in range(20)
        ]

    def test_reset_replays(self):
        enabled = actions((0, "send"), (1, "send"), (2, "send"))
        p = RandomPolicy(seed=3)
        first = [p.choose(enabled) for _ in range(10)]
        p.reset()
        assert [p.choose(enabled) for _ in range(10)] == first


class TestRunToBlock:
    def test_sticks_with_current(self):
        p = RunToBlockPolicy()
        both = actions((0, "send"), (1, "send"))
        assert p.choose(both) == 0
        assert p.choose(both) == 0
        only1 = actions((1, "send"),)
        assert p.choose(only1) == 1
        assert p.choose(both) == 1  # stays with 1 now


class TestSendsFirst:
    def test_prefers_non_recv(self):
        p = SendsFirstPolicy()
        mixed = actions((0, "recv"), (1, "send"), (2, "recv"))
        assert p.choose(mixed) == 1

    def test_falls_back_to_recv(self):
        p = SendsFirstPolicy()
        assert p.choose(actions((0, "recv"), (2, "recv"))) == 0

    def test_round_robins_within_preference(self):
        p = SendsFirstPolicy()
        sends = actions((0, "send"), (1, "send"))
        assert p.choose(sends) == 0
        assert p.choose(sends) == 1


class TestReplayAndPrefix:
    def test_replay_checks_enabledness(self):
        p = ReplayPolicy([2])
        with pytest.raises(ScheduleError, match="not enabled"):
            p.choose(actions((0, "send"),))

    def test_replay_exhaustion(self):
        p = ReplayPolicy([])
        with pytest.raises(ScheduleError, match="exhausted"):
            p.choose(actions((0, "send"),))

    def test_prefix_then_min_rank(self):
        p = ScheduleController([1], tail=MinRankPolicy())
        both = actions((0, "send"), (1, "send"))
        assert p.choose(both) == 1  # prefix
        assert p.choose(both) == 0  # tail: min rank

    def test_prefix_illegal(self):
        p = ScheduleController([3])
        with pytest.raises(ScheduleError, match="not a legal"):
            p.choose(actions((0, "send"),))


class TestRecording:
    def test_logs_choices_and_enabled_sets(self):
        inner = MinRankPolicy()
        p = ScheduleController(tail=inner)
        p.choose(actions((0, "send"), (2, "send")))
        p.choose(actions((2, "send"),))
        assert [
            (chosen, tuple(a.rank for a in enabled))
            for chosen, enabled in p.log
        ] == [(0, (0, 2)), (2, (2,))]
        assert p.log[0][1] == tuple(actions((0, "send"), (2, "send")))
        p.reset()
        assert p.log == []
