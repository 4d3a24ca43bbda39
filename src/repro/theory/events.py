"""Event identity across interleavings.

The engine-side definitions of :class:`~repro.runtime.trace.Event` and
:class:`~repro.runtime.trace.Trace` live in :mod:`repro.runtime.trace`
(re-exported here for convenience); a trace is any engine's
``result.trace`` — the observed order of an in-process run or the
clock-order merge of a process or socket one.  What the theory layer adds is a
notion of *event identity that survives reordering*: the same logical
action of the same process occupies different global positions in
different interleavings, so comparing interleavings requires a
position-independent key.

For the deterministic processes of the paper's model, a process's own
action sequence is the same in every maximal interleaving (its k-th
action is determined by its program and the values it has received,
which are determined by channel FIFO order).  Hence
``(rank, local_index)`` — recorded with every event — identifies an
action across interleavings, and
``(kind, channel, seq)`` must agree wherever the key agrees — a
consistency condition :func:`check_same_action_sequences` verifies on
recorded trace pairs.
"""

from __future__ import annotations

from repro.runtime.trace import Event, Trace

__all__ = [
    "Event",
    "Trace",
    "trace_keys",
    "check_same_action_sequences",
]

#: Position-independent event key: (rank, index-within-own-process).
EventKey = tuple[int, int]


def trace_keys(trace: Trace) -> list[EventKey]:
    """Keys of all events, in the trace's interleaving order."""
    return [(ev.rank, ev.local_index) for ev in trace]


def check_same_action_sequences(a: Trace, b: Trace) -> bool:
    """True iff each process performed the identical action sequence in
    both traces (kind, channel and per-channel sequence number all
    agree position-by-position).

    This is the per-process half of Theorem 1's conclusion: whatever
    interleaving occurs, every process runs the same program steps.
    """
    ranks = {e.rank for e in a} | {e.rank for e in b}
    for rank in ranks:
        sa = [(e.kind, e.channel, e.seq, e.label) for e in a.by_rank(rank)]
        sb = [(e.kind, e.channel, e.seq, e.label) for e in b.by_rank(rank)]
        if sa != sb:
            return False
    return True
