"""Systems: processes wired together by SRSW channels.

A :class:`System` is the static description of a parallel program in
the paper's model — the process specs plus the channel specs.  It is
*not* an execution: engines instantiate fresh run state (channels,
stores, contexts) each time, so one system can be executed under many
interleavings, which is precisely the quantification in Theorem 1.

Wiring rules enforced here:

* channel names are unique within a system;
* each channel's writer and reader are existing, distinct ranks
  (single-reader single-writer is thus true *by construction*, and
  additionally enforced per-operation by the channels themselves);
* ranks are dense: ``0..nprocs-1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ChannelError, RuntimeModelError
from repro.runtime.channel import Channel, ChannelSpec
from repro.runtime.context import ProcessContext, run_rank
from repro.runtime.process import ProcessSpec
from repro.runtime.trace import EventLog, Trace

__all__ = [
    "System",
    "RunResult",
    "RunState",
    "ChannelStatsRecord",
    "assemble_run_result",
]


@dataclass
class RunResult:
    """Everything observable about one completed execution.

    The *final state* in the sense of Theorem 1 is ``(stores, returns)``:
    the contents of every process's address space at termination plus
    the value returned by each body.  ``trace`` is populated when the
    engine ran with ``trace=True`` — the run's Lamport-stamped events,
    in observed order where the engine has one (in process), else in
    clock order; ``schedule`` is the interleaving as a rank sequence
    (replayable on the cooperative engine), and ``channel_stats`` maps
    channel name to ``(sends, receives)``.  ``channel_hwm`` maps channel name to
    the queue-occupancy high-water mark (in-process channels only: a
    cross-process channel reports 0), and ``report`` is the full
    :class:`~repro.obs.report.RunReport` when the engine ran with an
    observer (``observe=True``), else ``None``.

    On a pool (a ``multiprocess`` engine's run, a ``JobServer`` job) a
    store's large variables are views into the run's shared-memory pack
    rather than copies of it; they stay valid after the pool shuts down,
    and the pack is reused only once the last of them is gone — so
    holding N results holds N packs.
    """

    stores: list[dict[str, Any]]
    returns: list[Any]
    trace: Trace | None = None
    channel_stats: dict[str, tuple[int, int]] = field(default_factory=dict)
    channel_bytes: dict[str, int] = field(default_factory=dict)
    channel_hwm: dict[str, int] = field(default_factory=dict)
    #: Transport-level traffic, populated by every process-backed
    #: engine (multiprocess, socket): wire frames written, bytes in
    #: those frames, and send syscalls issued, per
    #: channel.  In-process engines move references, so theirs are all
    #: zero — unlike ``channel_bytes`` (logical payload size), these are
    #: engine-dependent by design and excluded from equivalence checks.
    #: ``channel_shm_bytes`` is 0 on every engine: no channel stages
    #: payloads through shared memory.
    channel_frames: dict[str, int] = field(default_factory=dict)
    channel_pipe_bytes: dict[str, int] = field(default_factory=dict)
    channel_shm_bytes: dict[str, int] = field(default_factory=dict)
    channel_net_syscalls: dict[str, int] = field(default_factory=dict)
    engine: str = ""
    report: Any = None
    #: :class:`~repro.runtime.deadlock.DeadlockReport` when this result
    #: is the *partial* state snapshotted by the cooperative engine at
    #: deadlock detection (attached to the raised ``DeadlockError``);
    #: ``None`` on every completed run.  Lets the schedule explorer
    #: classify deadlocks distinctly from crashes with the full
    #: wait-for-cycle evidence in hand.
    deadlock: Any = None

    @property
    def schedule(self) -> list[int]:
        if self.trace is None:
            raise RuntimeModelError(
                "run was not traced; pass trace=True to the engine"
            )
        return self.trace.schedule()


@dataclass(frozen=True)
class ChannelStatsRecord:
    """One channel's end-of-run statistics, engine-agnostic.

    Every engine reduces its channels to these records and hands them
    to :func:`assemble_run_result`, so ``channel_stats`` /
    ``channel_bytes`` / ``channel_hwm`` are populated by exactly one
    code path, and the run's :class:`~repro.obs.report.RunReport` holds
    the same records.  The counters are what a channel's
    :meth:`~repro.runtime.channel.ChannelCore.stats` yields: all of them
    from an in-process channel, the writer's and the reader's halves
    from the two endpoints of a cross-process one (a half that never
    reported — its rank failed — stays zero).
    """

    name: str
    writer: int
    reader: int
    sends: int = 0
    receives: int = 0
    bytes_sent: int = 0
    queue_hwm: int = 0
    # Transport-level counters (zero for in-process channels, which
    # move references rather than frames): wire frames, their bytes,
    # and send syscalls (see :mod:`repro.dist.channels`).
    frames: int = 0
    pipe_bytes: int = 0
    net_syscalls: int = 0


def assemble_run_result(
    *,
    stores: list[dict[str, Any]],
    returns: list[Any],
    engine: str,
    channel_stats: Sequence[ChannelStatsRecord],
    logs: Mapping[int, Mapping[str, Any]] | None = None,
    observations: Mapping[int, Mapping[str, Any]] | None = None,
    trace: bool = False,
    report_name: str | None = None,
) -> RunResult:
    """The single tail of every run: where a :class:`RunResult` is
    populated, the per-rank event logs are merged once and read as its
    ``trace`` and its report's processes and spans.

    ``logs`` are per-rank :meth:`~repro.runtime.trace.EventLog.payload`
    logs (none when nothing asked for them), ``trace`` whether the run
    was traced.  ``observations`` are
    :func:`~repro.obs.report.worker_observation`
    payloads keyed by reporter (one per worker of a process-backed run;
    an in-process run is a run with one), ``None`` when the run was not
    observed.  The report
    is labelled ``report_name`` (default: the engine's name).
    Centralising this (rather than each engine filling the stats dicts
    ad hoc) keeps the per-channel fields uniform across backends — the
    engine-equivalence tests compare them directly.
    """
    nprocs = len(stores)
    report = merged = None
    if logs:
        # An observed run's events share its report's epoch.
        epochs = [obs["epoch"] for obs in (observations or {}).values()]
        merged = Trace.merge(logs, nprocs, engine, min(epochs, default=None))
    # A process engine observes nothing: every index is -1, and the
    # stable sort keeps the merge's clock order.
    trace = merged.by_index() if trace and merged is not None else None
    if observations is not None:
        from repro.obs.report import merge_worker_observations

        report = merge_worker_observations(
            report_name or engine, nprocs, observations, channel_stats,
            logs, merged,
        )
        report.trace = trace
    return RunResult(
        stores=stores,
        returns=returns,
        trace=trace,
        channel_stats={r.name: (r.sends, r.receives) for r in channel_stats},
        channel_bytes={r.name: r.bytes_sent for r in channel_stats},
        channel_hwm={r.name: r.queue_hwm for r in channel_stats},
        channel_frames={r.name: r.frames for r in channel_stats},
        channel_pipe_bytes={r.name: r.pipe_bytes for r in channel_stats},
        channel_shm_bytes={r.name: 0 for r in channel_stats},
        channel_net_syscalls={r.name: r.net_syscalls for r in channel_stats},
        engine=engine,
        report=report,
    )


class RunState:
    """Fresh per-run mutable state: live channels, stores, contexts —
    and the run's optional instruments, so the in-process engines share
    one preamble and one tail.

    ``observe`` is ``True`` (a fresh :class:`~repro.obs.observer.
    Observer`), an ``Observer`` instance (used as given), or falsy.
    Either of ``trace`` / ``observe`` switches on one
    :class:`~repro.runtime.trace.EventLog` per rank, sharing one
    observation counter, whose sends are stamped when ``trace`` is on;
    they are handed to ``executor`` as its ``log`` attribute before any
    context exists.
    """

    def __init__(
        self,
        system: "System",
        executor,
        trace: bool = False,
        observe=False,
    ):
        self.system = system
        self.trace = trace
        if observe is True:
            from repro.obs.observer import Observer

            observe = Observer()
        self.observer = observe or None
        self.log = None
        if trace or self.observer is not None:
            order = itertools.count()
            self.log = [
                EventLog(p.rank, trace, order) for p in system.processes
            ]
        executor.log = self.log
        self.channels: dict[str, Channel] = {
            spec.name: system.make_channel(spec) for spec in system.channel_specs
        }
        self.stores: list[dict[str, Any]] = [
            p.fresh_store() for p in system.processes
        ]
        self.returns: list[Any] = [None] * system.nprocs
        self.contexts: list[ProcessContext] = []
        for p in system.processes:
            out = {
                name: ch
                for name, ch in self.channels.items()
                if ch.writer == p.rank
            }
            inc = {
                name: ch
                for name, ch in self.channels.items()
                if ch.reader == p.rank
            }
            self.contexts.append(
                ProcessContext(
                    rank=p.rank,
                    nprocs=system.nprocs,
                    store=self.stores[p.rank],
                    out_channels=out,
                    in_channels=inc,
                    executor=executor,
                    name=p.name,
                    observer=self.observer,
                )
            )

    def run_body(self, rank: int) -> None:
        """Run one rank's body (:func:`~repro.runtime.context.run_rank`);
        what it raises propagates."""
        body = self.system.processes[rank].body
        self.returns[rank] = run_rank(self.contexts[rank], body)

    def result(self, engine: str, report: bool = True) -> RunResult:
        observations = None
        if self.observer is not None and report:
            from repro.obs.report import worker_observation

            observations = {0: worker_observation(self.observer)}
        return assemble_run_result(
            stores=self.stores,
            returns=self.returns,
            engine=engine,
            channel_stats=[
                ChannelStatsRecord(ch.name, ch.writer, ch.reader, **ch.stats())
                for ch in self.channels.values()
            ],
            logs={log.rank: log.payload() for log in self.log or ()},
            observations=observations,
            trace=self.trace,
        )


class System:
    """A set of process specs plus the channel specs connecting them."""

    def __init__(
        self,
        processes: Sequence[ProcessSpec],
        channels: Sequence[ChannelSpec] = (),
    ):
        procs = sorted(processes, key=lambda p: p.rank)
        ranks = [p.rank for p in procs]
        if ranks != list(range(len(procs))):
            raise RuntimeModelError(
                f"process ranks must be dense 0..N-1, got {ranks}"
            )
        self.processes: list[ProcessSpec] = list(procs)
        self.channel_specs: list[ChannelSpec] = []
        self._channel_names: set[str] = set()
        for spec in channels:
            self.add_channel_spec(spec)

    # -- construction ----------------------------------------------------------

    @property
    def nprocs(self) -> int:
        return len(self.processes)

    def add_channel_spec(self, spec: ChannelSpec) -> ChannelSpec:
        if spec.name in self._channel_names:
            raise ChannelError(f"duplicate channel name {spec.name!r}")
        for endpoint, role in ((spec.writer, "writer"), (spec.reader, "reader")):
            if endpoint >= self.nprocs:
                raise ChannelError(
                    f"channel {spec.name!r} {role} rank {endpoint} does not "
                    f"exist (nprocs={self.nprocs})"
                )
        self._channel_names.add(spec.name)
        self.channel_specs.append(spec)
        return spec

    def add_channel(self, name: str, writer: int, reader: int) -> ChannelSpec:
        """Convenience wrapper building and registering a spec."""
        return self.add_channel_spec(ChannelSpec(name, writer, reader))

    def make_channel(self, spec: ChannelSpec) -> Channel:
        """Channel factory; subclasses in :mod:`repro.theory.violations`
        override this to inject deliberately broken channels."""
        return Channel(spec)

    # -- inspection ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"System(nprocs={self.nprocs}, "
            f"channels={len(self.channel_specs)})"
        )
