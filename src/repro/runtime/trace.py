"""The event log: the raw material of the Theorem 1 experiments.

An *interleaving* in the paper is a sequence of actions drawn from the
processes.  Every action is recorded once — one :class:`Event`, written
by its rank's :class:`EventLog`, called by the run's one
:class:`~repro.runtime.context.Executor` — and a :class:`Trace` is a
sequence of those events.  ``trace=True`` records the log on every
engine, with Lamport stamps, and the run tail reads it three ways:

* merged by ``index``: the **observed order**.  It takes one process
  watching every action, so only the in-process engines have one.  A
  send draws its index *before* its value enters the channel and a
  receive *after* the value is in hand, so no receive is ever observed
  before its own send.  It is the order of ``RunResult.trace`` (read
  by :meth:`Trace.by_index`), and where no observed order exists —
  on the process engines every index is ``-1`` — that stable sort
  leaves the clock order;
* merged by ``(clock, rank)``: the **happens-before order**
  (:meth:`Trace.by_clock`), on every engine and across hosts.  The
  paper's model never needed a total order in the first place:
  Theorem 1's commuting-diagram argument runs entirely over the
  happens-before partial order (program order plus channel FIFO order,
  see :mod:`repro.theory.happens_before`);
* the receives' ``t1 - t0``: the **blocked/compute split** and the
  ``"blocked"`` spans of a :class:`~repro.obs.report.RunReport`.

An observed run's log also holds the rank's named spans (``stage``,
``exchange``, ``collective:*``; opened through ``ctx.span``) and the
instants its body began and ended — the rest of the report's
per-rank timeline.  They sit beside the events, not among them: the
orders above cover actions only.

Both orders are linear extensions of happens-before, so either is what
:mod:`repro.theory` analyses — building the relation, permuting
interleavings into one another (the proof technique of Theorem 1), and
rendering the Figure 1 style correspondence between parallel and
simulated-parallel executions.

Three action kinds are recorded:

``send``
    A value was appended to a channel.  ``channel`` names it and
    ``seq`` is the 0-based per-channel send sequence number.
``recv``
    A value was removed from a channel; ``seq`` is the per-channel
    receive sequence number.  The k-th receive on a channel observes
    the k-th send (FIFO), which is exactly the cross-process edge of
    the happens-before relation.
``step``
    An explicit local-computation marker emitted by ``ctx.step()``.
    Local steps never synchronise, so they commute freely with actions
    of other processes; bodies emit them only to make traces legible.

``clock`` is the classic logical-clock construction (Lamport 1978):

* every local event (send, receive, explicit step) *ticks* its rank's
  clock;
* under ``trace=True`` every sent message is stamped with the
  sender's post-tick clock — riding with the value in one place: the
  queue entry in process, the wire header over a stream
  (:mod:`repro.dist.wire`);
* a receiver *max-merges*: ``c = max(c_local, c_message) + 1`` — so a
  receive's clock **strictly exceeds** its matching send's clock, and
  clock order is a linear extension of happens-before.

Recording is a **pure refinement**: a log observes sends and receives
but never influences them, so traced and untraced runs produce bitwise
identical final states (asserted by the engine-equivalence tests).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Mapping, NamedTuple

__all__ = ["Event", "EventLog", "Trace", "RING_CAPACITY"]

#: Events one rank's ring holds; older ones are dropped (and counted).
RING_CAPACITY = 1 << 16


class Event(NamedTuple):
    """One action of one process (a named tuple: the run tail makes one
    per ring row).

    ``local_index`` is its position within its process's own sequence,
    ``index`` its position in the observed interleaving (``-1`` where
    no process watched every action).  ``seq`` is only meaningful for
    ``send``/``recv`` (per-channel sequence number); it is ``-1`` for
    ``step`` events, which have a ``label`` and no ``channel``.
    ``sent_clock`` is recorded on receives only: the stamp carried by
    the matched message, which makes every send→recv edge explicit and
    checkable after the merge.  ``t0``/``t1`` are wall timestamps
    (``perf_counter``; system-wide on Linux, so cross-process
    comparable): a receive's request and its value in hand; for a send
    or a step one instant, read before the action is performed.  They
    are used for timeline layout and blocked time — never for ordering
    decisions, which belong to ``index`` and ``clock`` alone.
    """

    rank: int
    kind: str  # 'send' | 'recv' | 'step'
    channel: str | None
    seq: int
    label: str = ""
    local_index: int = -1
    index: int = -1
    clock: int = 0
    sent_clock: int | None = None
    t0: float = 0.0
    t1: float = 0.0

    @property
    def t(self) -> float:
        """The instant of recording."""
        return self.t1

    def action(self) -> str:
        """The action without its rank, e.g. ``send(c01#3)``."""
        if self.kind == "step":
            return f"step({self.label})"
        return f"{self.kind}({self.channel}#{self.seq})"

    def brief(self) -> str:
        """Compact single-token rendering, e.g. ``P1:send(c01#3)``."""
        tag = self.action() if self.kind != "step" else self.label or "compute"
        return f"P{self.rank}:{tag}"


class EventLog:
    """One rank's recorder: its Lamport clock, a bounded ring of events
    and the running sum of its blocked time — and, when the run is
    observed, its spans and its lifetime.

    Either of ``trace=`` / ``observe=`` makes the engine (or
    :func:`repro.dist.worker.run_job`) create one per rank.  ``stamps``
    — ``trace=`` — says whether a send's clock rides with its value;
    ``order`` is the observation counter the ranks of an in-process run
    share (``next`` on it is atomic: recording takes no lock).  The ring
    holds the newest :data:`RING_CAPACITY` events as rows in
    :class:`Event` field order; when it overflows, the oldest are
    discarded and counted in ``dropped`` — recording never blocks and
    never grows without bound — while ``blocked`` keeps counting.

    ``spans`` holds one ``(name, cat, t0, t1, depth, args)`` row per
    finished :meth:`span`, ``depth`` the number of the rank's spans open
    around it; ``process`` is ``(name, start, finish)`` once
    :meth:`lifetime` has ended.  Only the rank's own thread writes
    either, so neither takes a lock.
    """

    def __init__(self, rank: int, stamps: bool = False, order=None):
        self.rank = rank
        self.stamps = stamps
        self.order = order
        self.clock = self.count = 0
        self.blocked = 0.0
        self.rows: deque[tuple] = deque(maxlen=RING_CAPACITY)
        self.spans: list[tuple] = []
        self.depth = 0
        self.process: tuple[str, float, float] | None = None

    @property
    def dropped(self) -> int:
        return self.count - len(self.rows)

    def record(
        self, kind, channel=None, seq=-1, label="", sent_clock=None, t0=None
    ) -> int | None:
        """Record one action, begun at ``t0`` if it could block; returns
        the stamp that rides with a sent value (``None`` unless the run
        is traced)."""
        t1 = perf_counter()
        if t0 is None:
            t0 = t1
        else:
            self.blocked += t1 - t0
        index = -1 if self.order is None else next(self.order)
        # Tick; past a received stamp too, so the new clock strictly
        # exceeds both operands.
        self.clock = clock = max(self.clock, sent_clock or 0) + 1
        self.rows.append(
            (self.rank, kind, channel, seq, label, self.count, index, clock,
             sent_clock, t0, t1)
        )
        self.count += 1
        return clock if self.stamps else None

    def receive(self, channel, perform, into: Any = None) -> Any:
        """Time ``perform(rank, channel, into)`` — the executor's
        blocking receive, returning ``(value, stamp)`` — from the request
        to the value in hand (landed, with ``into``), and record it."""
        t0 = perf_counter()
        value, stamp = perform(self.rank, channel, into)
        # SRSW: this thread is the only receiver, so ``receives`` is
        # stable between the receive above and the read below.
        self.record("recv", channel.name, channel.receives - 1, "", stamp, t0)
        return value

    @contextmanager
    def span(self, name: str, cat: str, args: dict[str, Any]) -> Iterator[None]:
        """Time the ``with`` block as one of this rank's spans."""
        depth = self.depth
        self.depth = depth + 1
        t0 = perf_counter()
        try:
            yield
        finally:
            self.depth = depth
            self.spans.append((name, cat, t0, perf_counter(), depth, args))

    @contextmanager
    def lifetime(self, name: str) -> Iterator[None]:
        """Time the ``with`` block as the life of this rank's body,
        which is called ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.process = (name, start, perf_counter())

    def payload(self) -> dict[str, Any]:
        """This rank's log, flattened for the result stream."""
        return {
            "dropped": self.dropped,
            "events": list(self.rows),
            "blocked": self.blocked,
            "spans": self.spans,
            "process": self.process,
        }


@dataclass
class Trace:
    """One execution's events in an order that extends happens-before:
    the observed interleaving, or the ``(clock, rank)`` merge — a valid
    linear extension because per-rank clocks strictly increase (program
    order preserved) and every receive's clock strictly exceeds its
    matching send's (channel order preserved).  ``dropped`` counts
    ring-buffer overflows across all ranks (0 in any run small enough
    to verify).
    """

    events: list[Event] = field(default_factory=list)
    nprocs: int = 0
    engine: str = ""
    dropped: int = 0

    @classmethod
    def merge(
        cls,
        payloads: Mapping[int, Mapping[str, Any]],
        nprocs: int,
        engine: str = "",
        epoch: float | None = None,
    ) -> "Trace":
        """Fuse per-rank :meth:`EventLog.payload` logs, in clock order —
        deterministic regardless of the order ranks reported in.

        Wall timestamps shift so the run starts at ~0: ``epoch``
        defaults to the earliest event time, and is an observed run's
        report epoch, so that events and spans share one timeline.
        """
        rows = [row for p in payloads.values() for row in p["events"]]
        if epoch is None:
            epoch = min((row[-1] for row in rows), default=0.0)
        events = [
            Event._make((*row[:-2], row[-2] - epoch, row[-1] - epoch))
            for row in rows
        ]
        dropped = sum(p["dropped"] for p in payloads.values())
        return cls(events, nprocs, engine, dropped).by_clock()

    def by_index(self) -> "Trace":
        """The same events in observed order (in-process runs; a stable
        sort, so events that were never observed keep their order)."""
        return self._sorted(lambda e: e.index)

    def by_clock(self) -> "Trace":
        """The same events in ``(clock, rank)`` order — a linear
        extension of happens-before on any engine."""
        return self._sorted(lambda e: (e.clock, e.rank))

    def _sorted(self, key) -> "Trace":
        events = sorted(self.events, key=key)
        return Trace(events, self.nprocs, self.engine, self.dropped)

    def record(self, rank, kind, channel=None, seq=-1, label="") -> Event:
        """Append one event by hand (tests, :mod:`repro.theory`)."""
        local_index = len(self.by_rank(rank))
        ev = Event(rank, kind, channel, seq, label, local_index, len(self.events))
        self.events.append(ev)
        return ev

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, i) -> Event:
        return self.events[i]

    def by_rank(self, rank: int) -> list[Event]:
        """The (program-order) subsequence of events of one process."""
        return [e for e in self.events if e.rank == rank]

    def schedule(self) -> list[int]:
        """The interleaving as a list of ranks (replayable by
        :class:`~repro.runtime.schedulers.ReplayPolicy`)."""
        return [e.rank for e in self.events]

    @property
    def depth(self) -> int:
        """Maximum clock value = length of the longest causal chain."""
        return max((e.clock for e in self.events), default=0)

    # -- edges and validation ------------------------------------------------

    def send_recv_pairs(self) -> list[tuple[Event, Event]]:
        """Every matched ``(send, recv)`` edge, in receive order."""
        sends = {(e.channel, e.seq): e for e in self.events if e.kind == "send"}
        return [
            (sends[(e.channel, e.seq)], e)
            for e in self.events
            if e.kind == "recv" and (e.channel, e.seq) in sends
        ]

    def validate(self) -> list[str]:
        """Check the Lamport invariant; returns violation descriptions.

        An empty list certifies that every receive's clock strictly
        exceeds its matching send's clock and that the stamp each
        receiver recorded equals the sender's — i.e. the merged trace
        really is happens-before consistent end-to-end (including
        across the wire formats that carried the stamps).
        """
        violations: list[str] = []
        send_of = {recv: send for send, recv in self.send_recv_pairs()}
        for e in (e for e in self.events if e.kind == "recv"):
            send, recv = send_of.get(e), f"recv {e.channel}#{e.seq}"
            if send is None:
                violations.append(
                    f"{recv} on P{e.rank} has no matching send in the trace"
                )
                continue
            if e.clock <= send.clock:
                violations.append(
                    f"{recv} clock {e.clock} does not exceed send clock {send.clock}"
                )
            if e.sent_clock is not None and e.sent_clock != send.clock:
                violations.append(
                    f"{recv} carried stamp {e.sent_clock} but the send's clock "
                    f"was {send.clock}"
                )
        return violations

    # -- rendering -----------------------------------------------------------

    def render(self, width: int = 72) -> str:
        """Multi-line human-readable rendering (Figure 1 style).

        Lines longer than ``width`` columns (long channel names or step
        labels) are truncated with an ellipsis so rendered traces line
        up in fixed-width experiment reports.
        """
        width = max(width, 16)
        lines = []
        for i, ev in enumerate(self.events):
            line = f"{i:5d}  {ev.brief()}"
            if len(line) > width:
                line = line[: width - 1] + "…"
            lines.append(line)
        return "\n".join(lines)

    def render_columns(self, limit: int | None = None) -> str:
        """A Figure-1-style timeline: one column per rank, one row per
        event, labelled with its clock.

        Works for any engine — the layout needs only the partial order,
        never a global observation order.
        """
        col = 18
        ranks = sorted({e.rank for e in self.events}) or list(range(self.nprocs))
        index = {r: i for i, r in enumerate(ranks)}
        header = " clock  " + "".join(f"{f'P{r}':<{col}}" for r in ranks)
        lines = [header, " " + "-" * (len(header) - 1)]
        shown = self.events if limit is None else self.events[: max(0, limit)]
        for e in shown:
            cells = [" " * col] * len(ranks)
            cells[index[e.rank]] = f"{e.action():<{col}}"
            lines.append(f"{e.clock:6d}  " + "".join(cells).rstrip())
        if limit is not None and len(self.events) > limit:
            lines.append(f"  ... and {len(self.events) - limit} more event(s)")
        return "\n".join(lines)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``trace --out`` schema; see
        docs/OBSERVABILITY.md)."""
        records = []
        for e in self.events:
            rec = {"rank": e.rank, "clock": e.clock, "kind": e.kind}
            rec.update(channel=e.channel or e.label, seq=e.seq, t=e.t)
            if e.sent_clock is not None:
                rec["sent_clock"] = e.sent_clock
            records.append(rec)
        return {
            "nprocs": self.nprocs,
            "engine": self.engine,
            "dropped": self.dropped,
            "depth": self.depth,
            "events": records,
            "violations": self.validate(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_dict`; what the schema does
        not carry reads as ``index == -1`` and ``t0 == t1 == t``."""
        events, counts = [], {}
        for r in data["events"]:
            rank, step = int(r["rank"]), r["kind"] == "step"
            sent, t = r.get("sent_clock"), float(r.get("t", 0.0))
            events.append(
                Event(
                    rank, r["kind"], None if step else r["channel"], int(r["seq"]),
                    r["channel"] if step else "", counts.get(rank, 0), -1,
                    int(r["clock"]), sent if sent is None else int(sent), t, t,
                )
            )
            counts[rank] = counts.get(rank, 0) + 1
        dropped = int(data.get("dropped", 0))
        return cls(events, int(data["nprocs"]), data.get("engine", ""), dropped)
