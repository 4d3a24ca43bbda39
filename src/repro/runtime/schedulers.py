"""Scheduling policies for the cooperative engine.

A policy chooses, at each step of a simulated execution, which process
performs its next action.  The cooperative engine presents the policy
with the *enabled* pending actions — sends and local steps are always
enabled (infinite slack), a receive is enabled iff its channel is
non-empty — so every policy automatically respects the simulation rule
"never read from a channel not known to be non-empty" (paper, section
3.1), and every completed run is a *maximal* interleaving.

Policies included:

* :class:`RoundRobinPolicy` — cycle through ranks; the canonical fair
  interleaving.
* :class:`RandomPolicy` — seeded uniform choice; the workhorse of the
  empirical determinacy experiments (many distinct interleavings of the
  same system).
* :class:`RunToBlockPolicy` — keep running one process until it blocks
  or finishes; produces the fewest context switches and corresponds to
  the natural hand-simulation order.
* :class:`SendsFirstPolicy` — prefer sends over receives; the ordering
  section 3.3 of the paper recommends for data-exchange operations
  ("all sends in a data-exchange operation are done before any
  receives"), guaranteeing the exchange cannot self-block.
* :class:`ScheduleController` — follow a forced prefix of ranks, then
  a tail policy, logging at every decision the choice made and the full
  enabled set (and, given a fingerprint function, a hash of the state
  just before it); the one steering policy behind the exhaustive
  schedule-tree walk of :mod:`repro.theory.enumerate` and the schedule
  explorer of :mod:`repro.explore`.
* :class:`ReplayPolicy` — its strict form: follow an explicit rank
  sequence, e.g. a previously recorded
  :meth:`~repro.runtime.trace.Trace.schedule`, and fail when it runs
  out; exact re-execution of one interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.util import rng_from

__all__ = [
    "PendingAction",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "RandomPolicy",
    "RunToBlockPolicy",
    "SendsFirstPolicy",
    "MinRankPolicy",
    "ScheduleController",
    "ReplayPolicy",
]


@dataclass(frozen=True)
class PendingAction:
    """What the scheduler knows about one process's next action."""

    rank: int
    kind: str  # 'send' | 'recv' | 'step'
    channel: str | None


class SchedulingPolicy:
    """Base class; subclasses override :meth:`choose`."""

    def reset(self) -> None:
        """Called once at the start of each run."""

    def observe_state(self, stores, channels) -> None:
        """Peek at the live run state before each :meth:`choose`.

        The cooperative engine calls this with the per-rank stores and
        the live ``{name: Channel}`` map immediately before asking for a
        decision.  The default does nothing; :class:`ScheduleController`
        overrides it to fingerprint states for prefix pruning.
        Implementations must treat the arguments as read-only —
        mutating them would change the execution being observed.
        """

    def choose(self, enabled: list[PendingAction]) -> int:
        """Return the rank of the action to perform next.

        ``enabled`` is non-empty and sorted by rank.  Must return the
        rank of one of its elements.
        """
        raise NotImplementedError


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through ranks, picking the next enabled one."""

    def __init__(self) -> None:
        self._last = -1

    def reset(self) -> None:
        self._last = -1

    def choose(self, enabled: list[PendingAction]) -> int:
        ranks = [a.rank for a in enabled]
        for r in ranks:
            if r > self._last:
                self._last = r
                return r
        self._last = ranks[0]
        return ranks[0]


class RandomPolicy(SchedulingPolicy):
    """Uniform random choice among enabled actions, from a seeded RNG.

    Distinct seeds give distinct (with high probability) maximal
    interleavings of the same system; the determinacy experiments run a
    system under many seeds and compare final states.
    """

    def __init__(self, seed: int | np.random.Generator | None = None):
        self._seed = seed
        self._rng = rng_from(seed)

    def reset(self) -> None:
        self._rng = rng_from(self._seed)

    def choose(self, enabled: list[PendingAction]) -> int:
        return enabled[int(self._rng.integers(len(enabled)))].rank


class RunToBlockPolicy(SchedulingPolicy):
    """Stay with the current process while it remains enabled."""

    def __init__(self) -> None:
        self._current = -1

    def reset(self) -> None:
        self._current = -1

    def choose(self, enabled: list[PendingAction]) -> int:
        ranks = [a.rank for a in enabled]
        if self._current in ranks:
            return self._current
        for r in ranks:
            if r > self._current:
                self._current = r
                return r
        self._current = ranks[0]
        return ranks[0]


class SendsFirstPolicy(SchedulingPolicy):
    """Prefer sends (and local steps) over receives, round-robin within.

    This realises the ordering Theorem 1's application prescribes for
    data-exchange operations: performing every send before any receive
    makes the receives provably safe (each awaited value is already in
    its channel).
    """

    def __init__(self) -> None:
        self._last = -1

    def reset(self) -> None:
        self._last = -1

    def choose(self, enabled: list[PendingAction]) -> int:
        preferred = [a for a in enabled if a.kind != "recv"] or enabled
        ranks = [a.rank for a in preferred]
        for r in ranks:
            if r > self._last:
                self._last = r
                return r
        self._last = ranks[0]
        return ranks[0]


class MinRankPolicy(SchedulingPolicy):
    """Always pick the lowest enabled rank (deterministic default)."""

    def choose(self, enabled: list[PendingAction]) -> int:
        return enabled[0].rank


class ScheduleController(SchedulingPolicy):
    """Follow ``prefix`` exactly, then ``tail``; log every decision.

    ``log`` holds, per decision, the chosen rank and the tuple of enabled
    pending actions, so a search can branch at every untaken
    alternative.  Given ``fingerprint`` (a function of the per-rank
    stores and the live channel map, e.g.
    :func:`repro.explore.fingerprint.state_fingerprint`),
    ``fingerprints`` holds the hash of the state just before each
    decision; without it, ``None`` per decision.

    One controller drives one run at a time: the engine's ``reset()``
    clears the logs.
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        tail: SchedulingPolicy | None = None,
        fingerprint: Callable[[list, Any], str] | None = None,
    ):
        self._prefix = list(prefix)
        self._tail = tail or MinRankPolicy()
        self._fingerprint = fingerprint
        self._pos = 0
        self._pending_fp: str | None = None
        #: per decision: (chosen rank, tuple of enabled PendingActions)
        self.log: list[tuple[int, tuple[PendingAction, ...]]] = []
        #: per decision: state fingerprint just before it (None when off)
        self.fingerprints: list[str | None] = []

    def reset(self) -> None:
        self._pos = 0
        self._pending_fp = None
        self._tail.reset()
        self.log = []
        self.fingerprints = []

    def observe_state(self, stores, channels) -> None:
        if self._fingerprint is not None:
            self._pending_fp = self._fingerprint(stores, channels)
        self._tail.observe_state(stores, channels)

    def choose(self, enabled: list[PendingAction]) -> int:
        ranks = [a.rank for a in enabled]
        if self._pos < len(self._prefix):
            rank = self._prefix[self._pos]
            if rank not in ranks:
                raise ScheduleError(
                    f"schedule names rank {rank} at step {self._pos} but "
                    f"its next action is not enabled (enabled: {ranks}); "
                    "the prefix is not a legal partial interleaving"
                )
        else:
            rank = self._past_prefix(enabled)
        self._pos += 1
        self.log.append((rank, tuple(enabled)))
        self.fingerprints.append(self._pending_fp)
        self._pending_fp = None
        return rank

    def _past_prefix(self, enabled: list[PendingAction]) -> int:
        return self._tail.choose(enabled)

    @property
    def schedule(self) -> list[int]:
        """The rank sequence actually executed so far."""
        return [rank for rank, _ in self.log]


class ReplayPolicy(ScheduleController):
    """Follow an explicit schedule (a list of ranks) exactly.

    Raises :class:`~repro.errors.ScheduleError` if the schedule runs out
    while processes are still live, or names a rank whose next action is
    not enabled — either means the schedule does not correspond to a
    legal interleaving of this system.
    """

    def __init__(self, schedule: Sequence[int]):
        super().__init__(schedule)

    def _past_prefix(self, enabled: list[PendingAction]) -> int:
        raise ScheduleError(
            f"replay schedule exhausted after {self._pos} actions but "
            f"processes are still live (enabled: "
            f"{[a.rank for a in enabled]})"
        )
