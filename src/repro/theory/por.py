"""Partial-order reduction: sleep-set enumeration of interleavings.

Plain enumeration (:func:`repro.theory.enumerate.enumerate_interleavings`)
visits *every* maximal interleaving — for a conforming system,
exponentially many equivalent ones.  Theorem 1's very content is that
those interleavings fall into a single commutation (Mazurkiewicz trace)
class, so a verifier only needs one representative per class.  **Sleep
sets** (Godefroid) prune the rest: after exploring action ``a`` at a
node, ``a`` is put to sleep for the sibling branches, and stays asleep
down a sibling's subtree for as long as it remains independent of the
actions taken — any schedule that would wake it is a commutation of one
already explored.  The walk is the same one plain enumeration uses
(:func:`repro.theory.enumerate.walk_schedules`), with this module's
independence predicate switched on.

Independence here is structural and conservative: two pending actions
are independent iff they belong to different processes *and* do not
touch the same channel (a send and the matching receive never commute
when the queue hovers at empty; same-process actions never commute).

For terminating systems, sleep-set exploration visits at least one
interleaving of every trace class (soundness) while typically visiting
exponentially fewer schedules than full enumeration.  Conforming
systems whose processes share no channel, and the exchange and ring
fixtures, collapse to exactly **one** visited schedule; where a send
and its receive race on one channel (producer/consumer, fan-in) the
structural predicate cannot tell the orders apart, and a few
representatives of the one class are visited.
"""

from __future__ import annotations

from repro.runtime.schedulers import PendingAction
from repro.runtime.system import System
from repro.theory.enumerate import (
    EnumerationResult,
    _final_digest,
    walk_schedules,
)

__all__ = ["enumerate_reduced", "independent_actions"]


def independent_actions(a: PendingAction, b: PendingAction) -> bool:
    """Structural independence: different processes, different channels."""
    if a.rank == b.rank:
        return False
    if a.channel is not None and a.channel == b.channel:
        return False
    return True


def enumerate_reduced(
    system: System, max_schedules: int = 10_000
) -> EnumerationResult:
    """Explore one representative per commutation class (sleep sets).

    Stateless search: each tree node is re-executed from scratch by
    replaying its prefix, so no engine state needs checkpointing.
    Raises :class:`~repro.theory.enumerate.EnumerationOverflow` past
    ``max_schedules`` representatives.
    """
    return walk_schedules(
        _final_digest(system),
        max_leaves=max_schedules,
        independent=independent_actions,
    )
