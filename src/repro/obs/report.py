"""The per-run report: everything the instruments observed, frozen.

A :class:`RunReport` is a plain-data summary of one execution:

* per-process wall time split into **compute** and **blocked-on-recv**
  (the split the paper's bulk-synchronous performance model reasons
  about: a rank is either advancing its local computation or waiting on
  a channel);
* per-channel traffic: message count, payload bytes, and the queue's
  occupancy **high-water mark** (how far ahead the writer ran — the
  empirical face of "infinite slack");
* the **rank × rank communication matrix** (messages and bytes),
  aggregated from channel endpoints;
* per-tag logical **stream** statistics from the communicator layer;
* every :class:`Span` — a named interval of one rank's timeline: a
  program stage, an exchange, a collective, a blocked receive —
  with timestamps shifted so the run starts at ~0;
* a snapshot of the run's metrics registry.

The processes and spans are readings of the ranks' event logs
(:class:`~repro.runtime.trace.EventLog`): a rank's lifetime and the
spans it opened through ``ctx.span`` are rows of its log, and its
``"blocked"`` spans are made from its receive events
(:func:`blocked_spans`).  Spans may nest (a collective inside a program
stage); ``depth`` records the nesting, so consumers reconstruct the
hierarchy without a parent pointer — as Chrome's ``X`` events do, by
interval inclusion.

The report renders itself as fixed-width tables (matching the
experiment reports elsewhere in this repository) and serialises to a
flat event list for the JSONL exporter; :meth:`RunReport.from_events`
rebuilds an equal report from that list, which is what the round-trip
tests check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping

from repro.runtime.system import ChannelStatsRecord
from repro.runtime.trace import Trace
from repro.util import format_table

__all__ = [
    "ProcessTimes",
    "Span",
    "StreamTraffic",
    "RunReport",
    "worker_observation",
    "merge_worker_observations",
    "blocked_spans",
]


@dataclass(frozen=True)
class Span:
    """One finished interval of one process.

    ``depth`` is the nesting level at which the span was opened (0 for
    top-level), letting consumers indent or aggregate hierarchically.
    """

    name: str
    cat: str
    rank: int
    t0: float
    t1: float
    depth: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class ProcessTimes:
    """One process's wall-clock accounting."""

    rank: int
    name: str
    wall: float
    blocked: float

    @property
    def compute(self) -> float:
        """Wall time not spent blocked on a receive."""
        return max(0.0, self.wall - self.blocked)


@dataclass(frozen=True)
class StreamTraffic:
    """One tagged logical stream (communicator layer)."""

    src: int
    dst: int
    tag: int
    messages: int
    nbytes: int


#: The :class:`ChannelStatsRecord` fields only a wire fills in; JSONL
#: ``channel`` records written before reports carried them read as zero.
_TRANSPORT_COUNTERS = (
    "frames",
    "pipe_bytes",
    "net_syscalls",
)


def _phase_key(name: str) -> str:
    """Collapse per-step stage names (``E-phase[3]``) into one phase."""
    return name.split("[", 1)[0]


@dataclass
class RunReport:
    """Frozen observability summary of one run."""

    engine: str
    nprocs: int
    processes: list[ProcessTimes] = field(default_factory=list)
    #: Per channel: lifetime traffic, peak occupancy, transport counters.
    channels: list[ChannelStatsRecord] = field(default_factory=list)
    streams: list[StreamTraffic] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    metrics: dict[str, int | float] = field(default_factory=dict)
    #: The run's :class:`~repro.runtime.trace.Trace` (``result.trace``)
    #: when it was traced (``trace=True``), else ``None``.  Feeds the
    #: Chrome exporter's send→recv flow events.
    trace: Trace | None = None

    # -- aggregations --------------------------------------------------------

    def message_matrix(self) -> list[list[int]]:
        """``matrix[src][dst]`` = messages sent src -> dst (channel layer)."""
        m = [[0] * self.nprocs for _ in range(self.nprocs)]
        for ch in self.channels:
            m[ch.writer][ch.reader] += ch.sends
        return m

    def bytes_matrix(self) -> list[list[int]]:
        """``matrix[src][dst]`` = payload bytes sent src -> dst."""
        m = [[0] * self.nprocs for _ in range(self.nprocs)]
        for ch in self.channels:
            m[ch.writer][ch.reader] += ch.bytes_sent
        return m

    def total_messages(self) -> int:
        return sum(ch.sends for ch in self.channels)

    def total_bytes(self) -> int:
        return sum(ch.bytes_sent for ch in self.channels)

    def phase_totals(self) -> list[tuple[str, int, float]]:
        """``(phase, count, total_seconds)`` aggregated over spans.

        Per-step stages collapse into one phase (``E-phase[0..N]`` →
        ``E-phase``); blocked-receive spans are excluded (they are
        accounted in the per-process split).  Ordered by total time,
        largest first.
        """
        acc: dict[str, list] = {}
        for s in self.spans:
            if s.cat == "blocked":
                continue
            key = _phase_key(s.name)
            entry = acc.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += s.duration
        rows = [(k, c, t) for k, (c, t) in acc.items()]
        rows.sort(key=lambda r: -r[2])
        return rows

    # -- tables --------------------------------------------------------------

    def process_table(self) -> str:
        rows = []
        for p in sorted(self.processes, key=lambda p: p.rank):
            rows.append(
                [
                    p.name,
                    f"{p.wall * 1e3:.2f}",
                    f"{p.compute * 1e3:.2f}",
                    f"{p.blocked * 1e3:.2f}",
                    f"{100.0 * p.blocked / p.wall:.1f}%" if p.wall else "-",
                ]
            )
        return format_table(
            ["process", "wall ms", "compute ms", "blocked ms", "blocked %"],
            rows,
        )

    def channel_table(self, limit: int | None = 20) -> str:
        chans = sorted(self.channels, key=lambda c: -c.bytes_sent)
        shown = chans if limit is None else chans[:limit]
        rows = [
            [
                c.name,
                f"{c.writer}->{c.reader}",
                str(c.sends),
                str(c.receives),
                f"{c.bytes_sent}",
                str(c.queue_hwm),
            ]
            for c in shown
        ]
        table = format_table(
            ["channel", "edge", "sends", "recvs", "bytes", "queue hwm"], rows
        )
        if limit is not None and len(chans) > limit:
            rest = len(chans) - limit
            table += f"\n... and {rest} more channel(s)"
        return table

    def matrix_table(self, what: str = "messages") -> str:
        if what == "messages":
            m = self.message_matrix()
        elif what == "bytes":
            m = self.bytes_matrix()
        else:
            raise ValueError(f"unknown matrix {what!r}")
        headers = ["src\\dst"] + [f"P{j}" for j in range(self.nprocs)]
        rows = [
            [f"P{i}"] + [str(m[i][j]) if m[i][j] else "." for j in range(self.nprocs)]
            for i in range(self.nprocs)
        ]
        return format_table(headers, rows, title=f"communication matrix ({what})")

    def phase_table(self) -> str:
        rows = [
            [name, str(count), f"{total * 1e3:.2f}"]
            for name, count, total in self.phase_totals()
        ]
        return format_table(["phase", "spans", "total ms"], rows)

    def summary(self) -> str:
        """The full human-readable run summary."""
        parts = [
            f"run summary — engine={self.engine}, nprocs={self.nprocs}, "
            f"messages={self.total_messages()}, bytes={self.total_bytes()}",
            "",
            self.process_table(),
            "",
            self.channel_table(),
            "",
            self.matrix_table("messages"),
            "",
            self.matrix_table("bytes"),
        ]
        if self.spans:
            parts += ["", self.phase_table()]
        if self.metrics:
            parts += [
                "",
                format_table(
                    ["metric", "value"],
                    [[k, str(v)] for k, v in sorted(self.metrics.items())],
                ),
            ]
        return "\n".join(parts)

    # -- serialisation -------------------------------------------------------

    def to_events(self) -> list[dict[str, Any]]:
        """The report as a flat list of JSON-able records (JSONL form)."""
        events: list[dict[str, Any]] = [
            {"type": "run", "engine": self.engine, "nprocs": self.nprocs}
        ]
        for p in self.processes:
            events.append({"type": "process", **asdict(p)})
        for c in self.channels:
            events.append(
                {
                    "type": "channel",
                    "name": c.name,
                    "writer": c.writer,
                    "reader": c.reader,
                    "sends": c.sends,
                    "receives": c.receives,
                    "bytes": c.bytes_sent,
                    "queue_hwm": c.queue_hwm,
                    **{k: getattr(c, k) for k in _TRANSPORT_COUNTERS},
                }
            )
        for s in self.streams:
            events.append(
                {
                    "type": "stream",
                    "src": s.src,
                    "dst": s.dst,
                    "tag": s.tag,
                    "messages": s.messages,
                    "bytes": s.nbytes,
                }
            )
        for sp in self.spans:
            events.append({"type": "span", **asdict(sp)})
        for name, value in sorted(self.metrics.items()):
            events.append({"type": "metric", "name": name, "value": value})
        if self.trace is not None:
            events.append({"type": "causal", **self.trace.to_dict()})
        return events

    @classmethod
    def from_events(cls, events: Iterable[Mapping[str, Any]]) -> "RunReport":
        """Rebuild a report from :meth:`to_events` records."""
        report = cls(engine="", nprocs=0)
        for ev in events:
            kind = ev.get("type")
            if kind == "run":
                report.engine = ev["engine"]
                report.nprocs = int(ev["nprocs"])
            elif kind == "process":
                report.processes.append(
                    ProcessTimes(
                        int(ev["rank"]), ev["name"], ev["wall"], ev["blocked"]
                    )
                )
            elif kind == "channel":
                report.channels.append(
                    ChannelStatsRecord(
                        ev["name"],
                        int(ev["writer"]),
                        int(ev["reader"]),
                        int(ev["sends"]),
                        int(ev["receives"]),
                        int(ev["bytes"]),
                        int(ev["queue_hwm"]),
                        **{k: int(ev.get(k, 0)) for k in _TRANSPORT_COUNTERS},
                    )
                )
            elif kind == "stream":
                report.streams.append(
                    StreamTraffic(
                        int(ev["src"]),
                        int(ev["dst"]),
                        int(ev["tag"]),
                        int(ev["messages"]),
                        int(ev["bytes"]),
                    )
                )
            elif kind == "span":
                report.spans.append(
                    Span(
                        ev["name"],
                        ev["cat"],
                        int(ev["rank"]),
                        ev["t0"],
                        ev["t1"],
                        int(ev.get("depth", 0)),
                        dict(ev.get("args", {})),
                    )
                )
            elif kind == "metric":
                report.metrics[ev["name"]] = ev["value"]
            elif kind == "causal":
                report.trace = Trace.from_dict(ev)
        return report


def worker_observation(observer) -> dict[str, Any]:
    """One observer, flattened: the run-wide part of the run tail's
    input (what each rank did is its event log's payload).

    An in-process run has one observer and so one payload; the
    process-backed engines run an independent observer per worker
    (observers cannot span address spaces) and each worker ships its
    payload home over the result stream.  Either way
    :func:`merge_worker_observations` makes the report.
    Timestamps stay absolute ``perf_counter`` values — on Linux that
    clock is system-wide (CLOCK_MONOTONIC), so one worker's epoch is
    comparable with another's.
    """
    return {
        "epoch": observer.epoch,
        "streams": observer.stream_stats(),
        "metrics": observer.registry.snapshot(),
    }


def merge_worker_observations(
    engine: str,
    nprocs: int,
    observations: Mapping[int, Mapping[str, Any]],
    channels: Iterable[ChannelStatsRecord],
    logs: Mapping[int, Mapping[str, Any]],
    trace: Trace | None = None,
) -> RunReport:
    """Fuse observation payloads and the ranks' event-log payloads
    (:meth:`~repro.runtime.trace.EventLog.payload`, by rank) into one
    :class:`RunReport`; ``channels`` are the run's records, which the
    report holds as given, and ``trace`` its merged event log (on the
    same epoch), whose receives become the report's ``"blocked"`` spans.

    A rank's process row is its lifetime and its log's blocked sum,
    which no ring overflow can lose.  The merged run epoch is the
    earliest worker epoch, so span and process timestamps from
    different workers land on one timeline.
    Stream counts are summed per ``(src, dst, tag)``; metrics are
    summed per name (the registry's counters dominate; a clash of
    same-named gauges across workers has no single right answer, and
    summing at least keeps counters exact).
    """
    epoch = min(
        (obs["epoch"] for obs in observations.values()), default=0.0
    )
    procs: list[ProcessTimes] = []
    stream_acc: dict[tuple[int, int, int], list[int]] = {}
    spans: list[Span] = []
    metrics: dict[str, int | float] = {}
    for rank, log in sorted(logs.items()):
        if log["process"] is not None:
            name, start, finish = log["process"]
            wall = finish - start
            procs.append(ProcessTimes(rank, name, wall, log["blocked"]))
        for name, cat, t0, t1, depth, args in log["spans"]:
            spans.append(
                Span(name, cat, rank, t0 - epoch, t1 - epoch, depth, args)
            )
    for _rank, obs in sorted(observations.items()):
        for key, (count, nbytes) in obs["streams"].items():
            entry = stream_acc.setdefault(tuple(key), [0, 0])
            entry[0] += count
            entry[1] += nbytes
        for name, value in obs["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value
    streams = [
        StreamTraffic(src, dst, tag, count, nbytes)
        for (src, dst, tag), (count, nbytes) in sorted(stream_acc.items())
    ]
    if trace is not None:
        spans += blocked_spans(trace, spans)
    # Full tiebreak chain: worker payloads arrive in completion order,
    # and same-timestamp spans (coarse clocks, symmetric ranks) must
    # still land in one deterministic merged order.
    spans.sort(key=lambda s: (s.t0, s.rank, s.t1, s.depth, s.cat, s.name))
    return RunReport(
        engine=engine,
        nprocs=nprocs,
        processes=procs,
        channels=list(channels),
        streams=streams,
        spans=spans,
        metrics=metrics,
    )


def blocked_spans(trace: Trace, spans: list[Span]) -> list[Span]:
    """One ``"blocked"`` span per receive event of ``trace``, from its
    request to the value in hand.

    ``depth`` is the nesting level of the receive: the number of its
    rank's ``spans`` begun and not yet ended at the request (a rank is
    one thread, so each of them contains it; other ranks' cancel out).
    """
    begun = sorted((s.rank, s.t0) for s in spans)
    ended = sorted((s.rank, s.t1) for s in spans)
    return [
        Span(
            f"recv {e.channel}",
            "blocked",
            e.rank,
            e.t0,
            e.t1,
            bisect_right(begun, (e.rank, e.t0)) - bisect_left(ended, (e.rank, e.t0)),
        )
        for e in trace
        if e.kind == "recv"
    ]
