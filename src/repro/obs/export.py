"""Exporters: JSONL event log and Chrome trace-event JSON.

Two output formats, two audiences:

* :func:`write_jsonl` — one JSON object per line, the machine-readable
  record of a run (per-process times, per-channel traffic, streams,
  spans, metrics).  :func:`read_jsonl` rebuilds an equal
  :class:`~repro.obs.report.RunReport`, so the log is a lossless
  round-trip of the report.
* :func:`write_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_: the
  run is one *process*, each rank one *thread*, every span a complete
  (``"ph": "X"``) event.  Blocked-receive spans appear on the same
  timeline as program phases, which makes waiting time visually obvious
  — the Figure 1 interleaving picture, but with real durations.

Lane assignment: the run is one trace process (pid 0), and every rank
of the report's process list or its spans gets one thread lane — dense
tids in sorted-rank order plus explicit ``thread_sort_index`` metadata,
so multiprocess and multi-host ranks render as unique, stably-ordered
lanes.

When the report carries a trace (``report.trace``), every
matched send→recv pair additionally becomes a Chrome *flow* event pair
(``"ph": "s"`` / ``"ph": "f"``), drawing the happens-before arrows
between rank lanes.

Timestamps: report spans are seconds relative to the run start; Chrome
wants integer-ish microseconds, so spans are scaled by 1e6.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.report import RunReport

__all__ = [
    "chrome_trace_dict",
    "write_chrome_trace",
    "read_chrome_trace",
    "write_jsonl",
    "read_jsonl",
]

#: The run's one trace process.
_PID = 0


def _lane_map(report: RunReport) -> dict[int, int]:
    """``rank -> tid``: unique, stably-sorted lanes.

    Every rank of the report's processes and spans gets a dense tid in
    sorted-rank order.  Dense tids — rather than the raw rank — keep
    lanes unique even when local rank ids repeat across hosts.
    """
    ranks = {p.rank for p in report.processes} | {s.rank for s in report.spans}
    return {rank: tid for tid, rank in enumerate(sorted(ranks))}


def _meta(pid: int, tid: int, what: str, **args: Any) -> dict[str, Any]:
    """One metadata (``"ph": "M"``) event: a lane's name or sort key."""
    return {"ph": "M", "pid": pid, "tid": tid, "name": what, "args": args}


def chrome_trace_dict(report: RunReport) -> dict[str, Any]:
    """The report's spans (and causal edges) as a Trace Event Format
    object."""
    lanes = _lane_map(report)
    names = {p.rank: p.name for p in report.processes}
    events: list[dict[str, Any]] = [
        _meta(_PID, 0, "process_name", name=f"repro run ({report.engine})"),
        _meta(_PID, 0, "process_sort_index", sort_index=_PID),
    ]
    for rank, tid in sorted(lanes.items()):
        label = names.get(rank, f"P{rank}")
        events.append(_meta(_PID, tid, "thread_name", name=label))
        events.append(_meta(_PID, tid, "thread_sort_index", sort_index=tid))
    for span in report.spans:
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.t0 * 1e6,
            "dur": span.duration * 1e6,
            "pid": _PID,
            "tid": lanes[span.rank],
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    if report.trace is not None:
        events.extend(_flow_events(report.trace, lanes))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _flow_events(trace, lanes: dict[int, int]) -> list[dict]:
    """One flow-event pair (``"s"`` start / ``"f"`` finish) per matched
    send→recv edge in the trace — the happens-before arrows."""
    events: list[dict[str, Any]] = []
    for k, (send, recv) in enumerate(trace.send_recv_pairs()):
        for ev, ph in ((send, "s"), (recv, "f")):
            flow: dict[str, Any] = {
                "name": f"{ev.channel}#{ev.seq}",
                "cat": "causal",
                "ph": ph,
                "id": k,
                "ts": ev.t * 1e6,
                "pid": _PID,
                "tid": lanes.get(ev.rank, ev.rank),
                "args": {"clock": ev.clock},
            }
            if ph == "f":
                flow["bp"] = "e"
            events.append(flow)
    return events


def write_chrome_trace(report: RunReport, path) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(chrome_trace_dict(report), fh)
    return path


def read_chrome_trace(path) -> dict[str, Any]:
    """Load a Chrome trace JSON (for validation and tests)."""
    with Path(path).open() as fh:
        return json.load(fh)


def write_jsonl(report: RunReport, path) -> Path:
    """Write the report as JSON-lines; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in report.to_events():
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")
    return path


def read_jsonl(path) -> RunReport:
    """Rebuild a :class:`RunReport` from a JSONL event log."""
    events = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return RunReport.from_events(events)
