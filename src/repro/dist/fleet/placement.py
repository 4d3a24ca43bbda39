"""Placement: which daemon hosts which rank.

:func:`least_loaded` sees the live
:class:`~repro.dist.fleet.membership.DaemonState` list (aliveness,
elastic capacity, current reservations) and returns a *gang* placement
— every rank of the job placed at once, or ``None`` if the fleet cannot
host the whole job right now (the job keeps waiting in the ready queue;
a completion, revival, or capacity growth re-asks).  Gang placement is
what makes waiting safe: a job never holds some daemons while blocking
on others, so the fleet cannot deadlock on partially-placed jobs.

Each rank goes to the alive daemon with the most free capacity at that
instant, ties broken by address order: load spreads evenly and a
multi-rank job gets the most parallelism across hosts.

Determinacy note: placement *never* affects results — by Theorem 1 a
job's final state is schedule- and host-independent — so placement is
a pure performance matter.
"""

from __future__ import annotations

from repro.dist.fleet.membership import DaemonState

__all__ = ["least_loaded"]


def least_loaded(
    nprocs: int, daemons: list[DaemonState]
) -> list[DaemonState] | None:
    """Rank → alive daemon with the most free capacity (greedy)."""
    free = {id(d): d.free for d in daemons if d.alive}
    if sum(free.values()) < nprocs:
        return None
    alive = [d for d in daemons if d.alive]
    assign: list[DaemonState] = []
    for _rank in range(nprocs):
        best = max(alive, key=lambda d: free[id(d)])
        if free[id(best)] <= 0:
            return None
        free[id(best)] -= 1
        assign.append(best)
    return assign
