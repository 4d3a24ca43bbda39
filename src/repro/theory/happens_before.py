"""The happens-before (dependence) relation over a trace — any
engine's ``result.trace``: the observed order of an in-process run, the
clock-order merge of a process or socket one, or either run's
:meth:`~repro.runtime.trace.Trace.by_clock`.

Two sources of ordering exist in the paper's model:

* **program order** — consecutive actions of the same process;
* **channel order** — the k-th send on a channel precedes the k-th
  receive on that channel (FIFO, blocking receive).

The transitive closure of these edges is the happens-before partial
order.  Two events unrelated by it are *independent*: they may be
swapped as adjacent actions of an interleaving without changing any
process's view — the commutation step at the heart of the Theorem 1
proof (and of Mazurkiewicz trace theory, of which this is an instance).

Additionally, two operations on the *same channel* are treated as
dependent even when the closure does not order them (e.g. a send and a
later receive of a different sequence number): swapping them could
change queue contents mid-trace.  For SRSW channels the closure already
orders same-endpoint operations through program order, so this mostly
matters as a safety net for the permutation checker.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuntimeModelError
from repro.runtime.trace import Trace

__all__ = ["HappensBefore"]


class HappensBefore:
    """Happens-before relation for one recorded trace.

    Built once (O(n^2 / 64) bitset closure), then queried in O(1):

    >>> hb = HappensBefore(trace)
    >>> hb.precedes(i, j)      # event i happens-before event j
    >>> hb.independent(i, j)   # neither precedes the other
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        n = len(trace)
        self._n = n
        # Direct edges i -> j (i precedes j).  A send that is merely
        # absent (ring overflow, a deadlock's partial trace) leaves its
        # receive unmatched; one recorded *after* its receive would be
        # an edge the forward sweep below silently loses.
        pos = {ev: i for i, ev in enumerate(trace)}
        edges = [(pos[s], pos[r]) for s, r in trace.send_recv_pairs()]
        for i, j in edges:
            if i > j:
                raise RuntimeModelError(
                    f"{trace[j].brief()} at position {j} precedes its send at "
                    f"position {i}: not a linear extension of happens-before"
                )
        last_by_rank: dict[int, int] = {}
        for i, ev in enumerate(trace):
            if ev.rank in last_by_rank:
                edges.append((last_by_rank[ev.rank], i))
            last_by_rank[ev.rank] = i
        # Reachability via boolean matrix closure in topological
        # (trace) order: every edge goes forward in the recorded
        # interleaving, so one forward sweep suffices.
        reach = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            reach[i, j] = True
        for j in range(n):
            preds = np.nonzero(reach[:, j])[0]
            for p in preds:
                reach[:, j] |= reach[:, p]
        self._reach = reach

    # -- queries -------------------------------------------------------------

    def precedes(self, i: int, j: int) -> bool:
        """True iff event ``i`` happens-before event ``j``."""
        return bool(self._reach[i, j])

    def independent(self, i: int, j: int) -> bool:
        """True iff neither event precedes the other."""
        return i != j and not self._reach[i, j] and not self._reach[j, i]

    # -- linear-extension check -------------------------------------------------

    def admits_order(self, order: list[int]) -> bool:
        """True iff ``order`` (a permutation of event positions of this
        trace) is a linear extension of the happens-before relation —
        i.e. a legal alternative interleaving of the same actions."""
        position = {idx: pos for pos, idx in enumerate(order)}
        if len(position) != self._n:
            return False
        for i, j in zip(*np.nonzero(self._reach)):
            if position[int(i)] > position[int(j)]:
                return False
        return True
