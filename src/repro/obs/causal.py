"""Distributed causal tracing: Lamport clocks and happens-before merge.

The cooperative and threaded engines can record a *total* observation
order (:class:`~repro.runtime.trace.Trace`) because one process watches
every action.  The multiprocess and socket engines have no such
observer — separate address spaces, separate hosts — but the paper's
model never needed a total order in the first place: Theorem 1's
commuting-diagram argument runs entirely over the **happens-before
partial order** (program order plus channel FIFO order, see
:mod:`repro.theory.happens_before`).  This module records exactly that
partial order on every engine, using the classic logical-clock
construction (Lamport 1978):

* each rank keeps a :class:`LamportClock`; every local event (send,
  receive, explicit step) *ticks* it;
* every sent message is stamped with the sender's post-tick clock —
  riding with the value in one place: the queue entry in process, the
  wire header pickle over pipes and TCP (:mod:`repro.dist.wire`);
* a receiver *max-merges*: ``c = max(c_local, c_message) + 1`` — so a
  receive's clock **strictly exceeds** its matching send's clock, and
  clock order is a linear extension of happens-before.

Per-rank logs are bounded ring buffers (events pushed out are counted
as dropped); each rank ships its log home through the engine's existing
result-pipe path and :func:`merge_causal_events` fuses them into a
:class:`CausalTrace` — a happens-before-consistent event sequence with
explicit send→recv edges, a validator for the clock invariant, and a
Figure-1-style topological timeline renderer that works even for runs
spanning hosts.

Tracing is a **pure refinement**: recorders observe sends and receives
but never influence them, so traced and untraced runs produce bitwise
identical final states (asserted by the engine-equivalence tests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping

__all__ = [
    "LamportClock",
    "CausalEvent",
    "CausalRecorder",
    "CausalTrace",
    "merge_causal_events",
]

#: Events one rank's ring holds; older ones are dropped (and counted).
RING_CAPACITY = 1 << 16


class LamportClock:
    """One rank's scalar logical clock."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = int(value)

    def tick(self) -> int:
        """Advance for a local event; returns the new clock."""
        self.value += 1
        return self.value

    def merge(self, other: int) -> int:
        """Advance past a received message's stamp; returns the new
        clock, which strictly exceeds both operands."""
        self.value = max(self.value, int(other)) + 1
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LamportClock({self.value})"


@dataclass(frozen=True)
class CausalEvent:
    """One rank-local event with its logical timestamp.

    ``kind`` is ``"send"`` / ``"recv"`` / ``"step"``; ``channel`` names
    the channel (or carries the step label), ``seq`` the channel
    sequence number (``-1`` for steps).  ``sent_clock`` is recorded on
    receives only: the stamp carried by the matched message, which makes
    every send→recv edge explicit and checkable after the merge.  ``t``
    is the wall timestamp (``perf_counter``; system-wide on Linux, so
    cross-process comparable) used for timeline layout — never for
    ordering decisions, which belong to ``clock`` alone.
    """

    rank: int
    clock: int
    kind: str
    channel: str
    seq: int
    t: float = 0.0
    sent_clock: int | None = None

    def brief(self) -> str:
        if self.kind == "step":
            return f"step({self.channel})"
        return f"{self.kind}({self.channel}#{self.seq})"


class CausalRecorder:
    """One rank's event log: a Lamport clock plus a bounded ring.

    The engine (or :func:`repro.dist.worker.run_job`) creates one per
    rank and hands it to the run's
    :class:`~repro.runtime.context.Executor`, which calls
    :meth:`on_send` / :meth:`on_recv` / :meth:`on_step` as it performs
    each action.  The ring holds the newest :data:`RING_CAPACITY`
    events; when it overflows, the oldest are discarded and counted in
    ``dropped`` — recording never blocks and never grows without bound.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = LamportClock()
        self.events: deque[CausalEvent] = deque()
        self.dropped = 0

    # -- recording hooks ---------------------------------------------------

    def on_send(self, channel: str, seq: int) -> int:
        """Tick for a send; returns the stamp that rides with the value."""
        c = self.clock.tick()
        self._record(CausalEvent(self.rank, c, "send", channel, seq, perf_counter()))
        return c

    def on_recv(self, channel: str, seq: int, sent_clock: int | None) -> int:
        """Max-merge a delivered message's stamp; returns the new clock."""
        c = self.clock.merge(sent_clock or 0)
        self._record(
            CausalEvent(
                self.rank, c, "recv", channel, seq, perf_counter(), sent_clock
            )
        )
        return c

    def on_step(self, label: str) -> int:
        """Tick for a local step (stage boundary, kernel span)."""
        c = self.clock.tick()
        self._record(CausalEvent(self.rank, c, "step", label, -1, perf_counter()))
        return c

    # -- ring management ---------------------------------------------------

    def _record(self, event: CausalEvent) -> None:
        self.events.append(event)
        if len(self.events) > RING_CAPACITY:
            self.events.popleft()
            self.dropped += 1

    # -- handoff -----------------------------------------------------------

    def payload(self) -> dict[str, Any]:
        """This rank's log, flattened for the result pipe."""
        return {
            "rank": self.rank,
            "clock": self.clock.value,
            "dropped": self.dropped,
            "events": [
                (e.kind, e.channel, e.seq, e.clock, e.sent_clock, e.t)
                for e in self.events
            ],
        }


def _event_record(e: CausalEvent) -> dict[str, Any]:
    rec: dict[str, Any] = {
        "rank": e.rank,
        "clock": e.clock,
        "kind": e.kind,
        "channel": e.channel,
        "seq": e.seq,
        "t": e.t,
    }
    if e.sent_clock is not None:
        rec["sent_clock"] = e.sent_clock
    return rec


@dataclass
class CausalTrace:
    """The merged happens-before-consistent event sequence of one run.

    ``events`` is a topological order of the happens-before relation:
    sorted by ``(clock, rank)``, which is a valid linear extension
    because per-rank clocks strictly increase (program order preserved)
    and every receive's clock strictly exceeds its matching send's
    (channel order preserved).  ``dropped`` counts ring-buffer
    overflows across all ranks (0 in any run small enough to verify).
    """

    nprocs: int
    events: list[CausalEvent] = field(default_factory=list)
    engine: str = ""
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.events)

    @property
    def depth(self) -> int:
        """Maximum clock value = length of the longest causal chain."""
        return max((e.clock for e in self.events), default=0)

    # -- edges and validation ----------------------------------------------

    def send_recv_pairs(self) -> list[tuple[CausalEvent, CausalEvent]]:
        """Every matched ``(send, recv)`` edge, in receive order."""
        sends = {
            (e.channel, e.seq): e for e in self.events if e.kind == "send"
        }
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
        sends = {
            (e.channel, e.seq): e for e in self.events if e.kind == "send"
        }
        for e in self.events:
            if e.kind != "recv":
                continue
            send = sends.get((e.channel, e.seq))
            if send is None:
                violations.append(
                    f"recv {e.channel}#{e.seq} on P{e.rank} has no "
                    "matching send in the trace"
                )
                continue
            if e.clock <= send.clock:
                violations.append(
                    f"recv {e.channel}#{e.seq} clock {e.clock} does not "
                    f"exceed send clock {send.clock}"
                )
            if e.sent_clock is not None and e.sent_clock != send.clock:
                violations.append(
                    f"recv {e.channel}#{e.seq} carried stamp "
                    f"{e.sent_clock} but the send's clock was {send.clock}"
                )
        return violations

    # -- rendering ----------------------------------------------------------

    def render(self, limit: int | None = None) -> str:
        """A Figure-1-style timeline: one column per rank, one row per
        event, rows in topological (clock) order.

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
            cells[index[e.rank]] = f"{e.brief():<{col}}"
            lines.append(f"{e.clock:6d}  " + "".join(cells).rstrip())
        if limit is not None and len(self.events) > limit:
            lines.append(f"  ... and {len(self.events) - limit} more event(s)")
        return "\n".join(lines)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``trace --out`` schema; see
        docs/OBSERVABILITY.md)."""
        return {
            "nprocs": self.nprocs,
            "engine": self.engine,
            "dropped": self.dropped,
            "depth": self.depth,
            "events": [_event_record(e) for e in self.events],
            "violations": self.validate(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CausalTrace":
        return cls(
            nprocs=int(data["nprocs"]),
            engine=data.get("engine", ""),
            dropped=int(data.get("dropped", 0)),
            events=[
                CausalEvent(
                    int(r["rank"]),
                    int(r["clock"]),
                    r["kind"],
                    r["channel"],
                    int(r["seq"]),
                    float(r.get("t", 0.0)),
                    (
                        int(r["sent_clock"])
                        if r.get("sent_clock") is not None
                        else None
                    ),
                )
                for r in data["events"]
            ],
        )


def merge_causal_events(
    payloads: Mapping[int, Mapping[str, Any]],
    nprocs: int,
    engine: str = "",
    epoch: float | None = None,
) -> CausalTrace:
    """Fuse per-rank :meth:`CausalRecorder.payload` logs into one trace.

    Wall timestamps shift so the run starts at ~0 (``epoch`` defaults to
    the earliest event time, matching the observation-merge convention
    in :func:`repro.obs.report.merge_worker_observations`).  The merged
    order — ``(clock, rank)`` — is deterministic regardless of the
    order ranks reported in, and is a linear extension of
    happens-before by the Lamport construction.
    """
    events: list[CausalEvent] = []
    dropped = 0
    for rank, payload in sorted(payloads.items()):
        dropped += int(payload.get("dropped", 0))
        for kind, channel, seq, clock, sent_clock, t in payload["events"]:
            events.append(
                CausalEvent(
                    int(payload.get("rank", rank)),
                    int(clock),
                    kind,
                    channel,
                    int(seq),
                    float(t),
                    int(sent_clock) if sent_clock is not None else None,
                )
            )
    if epoch is None:
        epoch = min((e.t for e in events), default=0.0)
    if epoch:
        events = [
            CausalEvent(
                e.rank, e.clock, e.kind, e.channel, e.seq, e.t - epoch,
                e.sent_clock,
            )
            for e in events
        ]
    events.sort(key=lambda e: (e.clock, e.rank, e.seq, e.kind))
    return CausalTrace(
        nprocs=nprocs, events=events, engine=engine, dropped=dropped
    )
