"""Deadlock diagnostics.

The cooperative engine detects deadlock exactly (live processes, no
enabled action) and raises :class:`~repro.errors.DeadlockError` with a
``waiting`` map.  This module turns that map plus the system wiring
into an explanation: the wait-for graph among processes and its cycles.

A process blocked receiving on channel ``c`` waits for ``c``'s writer.
A cycle in the wait-for graph is a classic circular wait; an acyclic
blocked set means some writer simply terminated (or will never send
enough values) — a logic error rather than a circular dependency.
Ablation A1 uses these diagnostics to show *why* receive-first
data-exchange orderings self-deadlock while the sends-first ordering
prescribed by the paper cannot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import DeadlockError
from repro.runtime.system import System

__all__ = [
    "DeadlockReport",
    "build_report",
    "wait_for_graph",
    "find_cycles",
    "explain_deadlock",
]

_CHANNEL_RE = re.compile(r"channel '([^']+)'")


@dataclass(frozen=True)
class DeadlockReport:
    """Structured evidence for one detected deadlock.

    ``blocked`` maps each blocked rank to ``(channel_name, peer_rank)``
    — the channel it is receiving on and that channel's writer, i.e. the
    rank it waits for.  ``cycles`` are the wait-for graph's circular
    waits (rank rings, canonicalised to start at their minimum rank); an
    empty tuple means the blockage is acyclic (some awaited writer
    terminated or under-sent — a logic error, not a circular
    dependency).  The cooperative engine attaches this report to the
    partial ``RunResult`` it snapshots at detection time
    (``result.deadlock``) so the schedule explorer can classify
    deadlocks distinctly from crashes.
    """

    blocked: dict[int, tuple[str, int]]
    cycles: tuple[tuple[int, ...], ...] = ()
    waiting: dict[int, str] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [
            f"P{rank} blocked on {chan!r} (waits for P{peer})"
            for rank, (chan, peer) in sorted(self.blocked.items())
        ]
        if self.cycles:
            for cycle in self.cycles:
                ring = " -> ".join(f"P{r}" for r in list(cycle) + [cycle[0]])
                parts.append(f"circular wait {ring}")
        return "; ".join(parts)


def build_report(
    blocked: dict[int, tuple[str, int]],
    waiting: dict[int, str] | None = None,
) -> DeadlockReport:
    """Assemble a :class:`DeadlockReport` from a structured blocked map,
    computing the wait-for cycles."""
    graph = {rank: [peer] for rank, (_, peer) in blocked.items()}
    cycles = tuple(tuple(c) for c in find_cycles(graph))
    return DeadlockReport(
        blocked=dict(blocked), cycles=cycles, waiting=dict(waiting or {})
    )


def wait_for_graph(
    error: DeadlockError, system: System
) -> dict[int, list[int]]:
    """Edges ``blocked_rank -> writer_rank`` extracted from a deadlock.

    Prefers the structured ``error.blocked`` map the cooperative engine
    now records; falls back to parsing the textual ``waiting``
    descriptions for errors built by other (or older) sources.
    Returned as an adjacency mapping (each blocked process waits on
    exactly one writer in this model, but the mapping form composes with
    graph utilities).
    """
    if getattr(error, "blocked", None):
        return {
            rank: [peer] for rank, (_, peer) in sorted(error.blocked.items())
        }
    graph: dict[int, list[int]] = {}
    by_name = {spec.name: spec for spec in system.channel_specs}
    for rank, description in error.waiting.items():
        match = _CHANNEL_RE.search(description)
        if not match:
            continue
        spec = by_name.get(match.group(1))
        if spec is not None:
            graph.setdefault(rank, []).append(spec.writer)
    return graph


def find_cycles(graph: dict[int, list[int]]) -> list[list[int]]:
    """All simple cycles of a small wait-for graph (DFS)."""
    cycles: list[list[int]] = []
    seen_cycles: set[tuple[int, ...]] = set()

    def dfs(path: list[int], node: int) -> None:
        for succ in graph.get(node, ()):
            if succ in path:
                cycle = path[path.index(succ) :]
                # Canonicalise rotation so each cycle is reported once.
                pivot = cycle.index(min(cycle))
                key = tuple(cycle[pivot:] + cycle[:pivot])
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(list(key))
            else:
                dfs(path + [succ], succ)

    for start in graph:
        dfs([start], start)
    return cycles


def explain_deadlock(error: DeadlockError, system: System) -> str:
    """Human-readable diagnosis of a deadlock."""
    graph = wait_for_graph(error, system)
    cycles = find_cycles(graph)
    lines = ["deadlock diagnosis:"]
    for rank, desc in sorted(error.waiting.items()):
        lines.append(f"  P{rank} blocked: {desc}")
    if cycles:
        for cycle in cycles:
            ring = " -> ".join(f"P{r}" for r in cycle + cycle[:1])
            lines.append(f"  circular wait: {ring}")
    else:
        lines.append(
            "  no circular wait: some awaited writer has terminated or "
            "under-sent"
        )
    return "\n".join(lines)
