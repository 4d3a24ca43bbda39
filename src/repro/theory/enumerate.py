"""The schedule-tree walk: exhaustive enumeration of maximal interleavings.

Theorem 1 quantifies over *all* maximal interleavings.  For small
systems we can visit every one: the interleaving space is a tree whose
nodes are scheduler decisions (which enabled process acts next) and
whose leaves are completed executions.  :func:`walk_schedules` walks
that tree by depth-first search, re-executing the system along each
path:

1. run once steered by a
   :class:`~repro.runtime.schedulers.ScheduleController`: forced through
   a *prefix* of choices, completed by a min-rank tail, logging the full
   enabled set at every decision;
2. every logged alternative not taken after the prefix becomes a new
   prefix to explore.

Because each complete interleaving corresponds to a unique decision
sequence, every maximal interleaving is visited exactly once, one run
per leaf.  The same walk serves three callers, differing only in what
they prune: :func:`enumerate_interleavings` (nothing),
:func:`repro.theory.por.enumerate_reduced` (sleep sets) and
:func:`repro.explore.strategies.explore_dfs` (state fingerprints).
Each leaf's final state is digested; Theorem 1 predicts exactly one
digest.

Cost grows as the number of interleavings (times re-execution), so
exhaustive enumeration is for *small* systems — the empirical sampler
in :mod:`repro.theory.determinacy` covers larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError
from repro.runtime.engine_cooperative import CooperativeEngine
from repro.runtime.schedulers import (
    PendingAction,
    ScheduleController,
    SchedulingPolicy,
)
from repro.runtime.system import System
from repro.theory.determinacy import state_digest

__all__ = [
    "EnumerationOverflow",
    "EnumerationResult",
    "walk_schedules",
    "enumerate_interleavings",
]

Independence = Callable[[PendingAction, PendingAction], bool]


class EnumerationOverflow(ReproError):
    """More complete schedules exist than the requested cap."""


@dataclass
class EnumerationResult:
    """The complete schedules one walk visited, and what it cost."""

    schedules: list[tuple[int, ...]] = field(default_factory=list)
    digests: dict[str, int] = field(default_factory=dict)  # digest -> count
    #: engine runs, branches ended by sleep sets included
    runs: int = 0
    #: decisions fingerprinted / not branched at because their state
    #: was already expanded
    hashed: int = 0
    pruned: int = 0
    #: sleep sets were on: each schedule stands for its commutation class
    reduced: bool = False

    @property
    def visited(self) -> int:
        return len(self.schedules)

    #: without sleep sets, every maximal interleaving is visited
    interleavings = visited

    @property
    def min_len(self) -> int:
        """Shortest schedule (every schedule of a conforming system has
        this length — same actions, reordered)."""
        return min(map(len, self.schedules), default=0)

    @property
    def determinate(self) -> bool:
        return len(self.digests) == 1

    def summary(self) -> str:
        if self.reduced:
            return (
                f"sleep-set reduction: {self.visited} representative "
                f"schedule(s), {len(self.digests)} distinct final "
                f"state(s), {self.runs} re-executions"
            )
        return (
            f"{self.visited} maximal interleavings, "
            f"{len(self.digests)} distinct final state(s)"
        )


class _AllAsleep(Exception):
    """Every enabled action is asleep: the branch commutes into one
    already explored."""


class _SleepTail(SchedulingPolicy):
    """Min-rank over the awake actions, carrying a sleep set down the
    path; ``sleeps`` records the set at each decision it makes."""

    def __init__(self, sleep: frozenset[PendingAction], independent):
        self._start = sleep
        self._independent = independent
        self.reset()

    def reset(self) -> None:
        self._sleep = self._start
        self.sleeps: list[frozenset[PendingAction]] = []

    def choose(self, enabled: list[PendingAction]) -> int:
        awake = [a for a in enabled if a not in self._sleep]
        if not awake:
            raise _AllAsleep
        action = awake[0]
        self.sleeps.append(self._sleep)
        self._sleep = frozenset(
            s for s in self._sleep if self._independent(s, action)
        )
        return action.rank


def _never(a: PendingAction, b: PendingAction) -> bool:
    return False


def walk_schedules(
    run: Callable[[ScheduleController], str | None],
    *,
    max_leaves: int,
    overflow: bool = True,
    independent: Independence | None = None,
    fingerprint: Callable | None = None,
    max_depth: int | None = None,
) -> EnumerationResult:
    """Depth-first walk of the schedule tree by stateless re-execution.

    ``run(controller)`` executes the system once under ``controller``
    and returns the final-state digest, or ``None`` for a run that did
    not complete; the walk branches at every decision the controller
    logged after its prefix.  Optional pruning:

    * ``independent`` — a commutation predicate turns on sleep sets
      (Godefroid): an action explored at a node sleeps in its later
      siblings' subtrees until a dependent action runs.  The tail never
      picks an asleep action while an awake one is enabled, and a node
      where every enabled action is asleep ends the branch without a
      leaf (each continuation commutes into an explored schedule);
    * ``fingerprint`` — a state hash for the controller: a decision
      whose state was already expanded is not branched at again;
    * ``max_depth`` — decisions at or past this index are not branched
      at (runs still complete).

    More than ``max_leaves`` complete schedules raise
    :class:`EnumerationOverflow`; with ``overflow=False`` the walk stops
    quietly at ``max_leaves`` instead.
    """
    commute = independent or _never
    result = EnumerationResult(reduced=independent is not None)
    expanded: set[str] = set()
    stack: list[tuple[tuple[int, ...], frozenset[PendingAction]]] = [
        ((), frozenset())
    ]
    while stack and (overflow or result.visited < max_leaves):
        prefix, sleep = stack.pop()
        tail = _SleepTail(sleep, commute)
        controller = ScheduleController(
            prefix, tail=tail, fingerprint=fingerprint
        )
        result.runs += 1
        try:
            digest = run(controller)
            complete = True
        except _AllAsleep:
            complete = False
        schedule = tuple(controller.schedule)
        if complete:
            result.schedules.append(schedule)
            if digest is not None:
                result.digests[digest] = result.digests.get(digest, 0) + 1
            if result.visited > max_leaves:
                raise EnumerationOverflow(
                    f"more than {max_leaves} complete schedules"
                )
        log = controller.log
        limit = len(log) if max_depth is None else min(len(log), max_depth)
        for i in range(len(prefix), limit):
            fp = controller.fingerprints[i]
            if fp is not None:
                result.hashed += 1
                if fp in expanded:
                    result.pruned += 1
                    continue
                expanded.add(fp)
            chosen, enabled = log[i]
            asleep = tail.sleeps[i - len(prefix)]
            # Alternatives are pushed in enabled order, so they are
            # explored in reverse; each sleeps on the actions explored
            # before it, the tail's choice first.
            explored = set(asleep) | {a for a in enabled if a.rank == chosen}
            frames = []
            for alt in reversed(enabled):
                if alt.rank == chosen or alt in asleep:
                    continue
                frames.append(
                    (
                        schedule[:i] + (alt.rank,),
                        frozenset(s for s in explored if commute(s, alt)),
                    )
                )
                explored.add(alt)
            stack.extend(reversed(frames))
    return result


def _final_digest(system: System) -> Callable[[ScheduleController], str]:
    return lambda controller: state_digest(
        CooperativeEngine(controller, trace=False).run(system)
    )


def enumerate_interleavings(
    system: System, max_interleavings: int = 10_000
) -> EnumerationResult:
    """Visit every maximal interleaving of ``system``.

    Raises :class:`EnumerationOverflow` if more than
    ``max_interleavings`` complete interleavings exist.
    """
    return walk_schedules(
        _final_digest(system), max_leaves=max_interleavings
    )
