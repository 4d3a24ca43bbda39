"""The multiprocess engine: each rank is a real OS process.

:class:`MultiprocessEngine` is the third execution backend, honouring
the same ``run(System) -> RunResult`` contract as
:class:`~repro.runtime.engine_threaded.ThreadedEngine` and the
cooperative engine.  Where the threaded engine shares one address space
(and one GIL), this engine gives every rank genuinely private memory
and a whole interpreter — the paper's model taken literally, and the
only backend on which compute-bound ranks actually run in parallel.

This module is the one coordinator of process-backed runs.
:func:`run_on_pool` puts one ``System`` on the workers of a
:class:`~repro.dist.pool.WorkerPool` — the only launcher there is — and
is what :meth:`MultiprocessEngine.run` (on a pool it keeps, or one
scoped to the run) and :class:`~repro.dist.serve.JobServer` both call.
Per run, it:

1. places each rank's large store arrays in two shared segments of
   the pool's :class:`~repro.dist.shm.SharedStoreArena`: its constants
   (read-only arrays — the FDTD coefficient blocks) in a *resident
   pack* written once per ``System`` and never read back, its variables
   (the Yee-grid field blocks) in a *run pack* written once at setup
   and never copied out: readback lends it to the result, whose
   variables are views into it;
2. builds one ``AF_UNIX`` socketpair per channel and one per rank's
   *result stream*, borrows one worker per rank and ships it its job —
   the body as its once-per-System image (:mod:`repro.dist.closures`),
   the socket ends in-band; each is a
   :class:`~repro.dist.net.frames.FrameStream` from then on, the stream
   a daemon's channels and control connections are too;
3. lets every rank run its body as soon as it is built: a rank that
   starts before its peers only blocks on its first receive (Theorem
   1), so there is no start barrier — each rank's one-way ``ready``
   notice only places the timing split between startup and the run
   proper;
4. multiplexes result streams and process sentinels
   (:func:`collect_results`): ``done`` payloads carry returns, store
   overrides, channel statistics, and observation payloads; a worker
   that dies without reporting is reaped via its sentinel into
   :class:`~repro.errors.ProcessFailedError`, exactly as a raising body
   is — a rank that fails during setup included: its peers are already
   running and unwind through the same EOF cascade, or are terminated
   when ``crash_grace`` runs out;
5. on success reads the stores back as views — the run packs go back
   to the pool's free list when the result's arrays die, not before —
   and **always** returns workers to the pool in a ``finally``, with
   the run packs of a failed run, which lends nothing; the pool's
   shutdown unlinks every segment, even when a worker crashed
   mid-step or a result is still held (the no-leak tests exercise
   precisely this).

What was collected is a :class:`Collected` record, and
:meth:`Collected.finish` — failure wrapping, then the same
:func:`~repro.runtime.system.assemble_run_result` the in-process
engines end in — is shared with the TCP coordinator
(:func:`repro.dist.net.engine.run_assigned`).

``trace=True`` is refused: it asks for the observed order, and separate
address spaces have none to offer (:class:`~repro.errors.
RuntimeModelError` up front).  ``trace_causal=True`` gives the same
events in happens-before order, which is all :mod:`repro.theory` needs.
"""

from __future__ import annotations

import multiprocessing.connection as mp_connection
import socket
import time
from dataclasses import dataclass, field
from typing import Any

from repro.dist import closures, wire
from repro.dist.channels import EndpointSpec
from repro.dist.net.frames import FrameStream
from repro.dist.pool import WorkerCrashError, WorkerPool
from repro.dist.shm import by_value_constants
from repro.errors import (
    ProcessFailedError,
    RuntimeModelError,
    TransportAbortError,
    TransportError,
    wrap_process_failure,
)
from repro.runtime.system import (
    ChannelStatsRecord,
    RunResult,
    System,
    assemble_run_result,
)

__all__ = [
    "Collected",
    "MultiprocessEngine",
    "WorkerCrashError",
    "build_channel_endpoints",
    "collect_results",
    "run_on_pool",
]


class _RemoteError(RuntimeError):
    """Stand-in for a worker exception that could not be unpickled."""

    def __init__(self, message: str, remote_traceback: str):
        super().__init__(message)
        self.remote_traceback = remote_traceback


def _rebuild_exception(exc_info: tuple[str, Any, str]) -> BaseException:
    kind, data, tb = exc_info
    if kind == "pickle":
        try:
            exc = closures.loads(data)
            exc.remote_traceback = tb
            return exc
        except Exception:
            data = "<unpicklable worker exception>"
    return _RemoteError(str(data), tb)


def merge_channel_stats(
    system: System, stats: dict[int, dict]
) -> list[ChannelStatsRecord]:
    """Fuse the writer and reader endpoint halves per channel (a half
    whose rank never reported stays zero)."""
    return [
        ChannelStatsRecord(
            spec.name,
            spec.writer,
            spec.reader,
            **stats.get(spec.writer, {}).get(spec.name, {}),
            **stats.get(spec.reader, {}).get(spec.name, {}),
        )
        for spec in system.channel_specs
    ]


@dataclass
class Collected:
    """What one run's ranks reported, keyed by rank.

    Filled by :func:`collect_results`; a rank is in ``errors`` or in
    ``returns``/``overrides``/``stats``, never both.  ``logs`` holds a
    rank's :meth:`~repro.runtime.trace.EventLog.payload` when the job
    ran observed or causally traced.  ``t_run0`` is the arrival of the
    last ``ready`` notice (``None`` if some rank never sent one),
    ``t_run1`` the last terminal report.  Ranks do not wait for each
    other, so a rank may start — even finish — before ``t_run0``.
    """

    returns: dict[int, Any] = field(default_factory=dict)
    overrides: dict[int, dict] = field(default_factory=dict)
    stats: dict[int, dict] = field(default_factory=dict)
    observations: dict[int, dict] = field(default_factory=dict)
    logs: dict[int, dict] = field(default_factory=dict)
    errors: dict[int, BaseException] = field(default_factory=dict)
    t_run0: float | None = None
    t_run1: float | None = None

    def timing(self, t_start: float) -> dict[str, float | None]:
        """The ``startup_s`` / ``run_s`` / ``total_s`` split of a run
        that began at ``t_start`` and ends now: ``startup_s`` up to the
        last ``ready`` (``t_run0``), ``run_s`` from there to the last
        terminal report.  A run in which some rank never reported ready
        has no startup to report: ``startup_s`` is ``None`` and
        ``run_s`` 0.0."""
        t_end = time.perf_counter()
        if self.t_run0 is None:
            startup_s, run_s = None, 0.0
        else:
            startup_s = self.t_run0 - t_start
            run_s = max(0.0, (self.t_run1 or t_end) - self.t_run0)
        return {
            "startup_s": startup_s,
            "run_s": run_s,
            "total_s": t_end - t_start,
        }

    def blamed_rank(self) -> int:
        """The failed rank a run's error names: the lowest, unless its
        error only echoes another failed rank's — a receive that found
        its writer dead raises a ProcessFailedError naming the writer —
        in which case the writer, followed to a rank whose failure is
        its own.  Ranks do not wait for each other to start, so a rank
        that fails while being built leaves its running peers such
        echoes; the error still names the rank and the cause."""
        rank = min(self.errors)
        seen = {rank}
        while True:
            exc = self.errors[rank]
            writer = exc.rank if isinstance(exc, ProcessFailedError) else None
            if writer in seen or writer not in self.errors:
                return rank
            seen.add(writer)
            rank = writer

    def finish(
        self,
        system: System,
        stores: list[dict[str, Any]],
        engine_name: str,
        observe: bool,
        trace_causal: bool = False,
        report_name: str | None = None,
    ) -> RunResult:
        """The tail of every process-backed run: raise the
        :class:`~repro.errors.ProcessFailedError` of the rank to blame
        (:meth:`blamed_rank`), else fuse the
        channel statistics and hand them, the worker observations
        (``observe``) and the event logs to the one assembly
        (:func:`~repro.runtime.system.assemble_run_result`).  The
        observation report is labelled ``report_name`` (default: the
        engine's name)."""
        if self.errors:
            rank = self.blamed_rank()
            raise wrap_process_failure(
                rank, self.errors[rank]
            ) from self.errors[rank]
        return assemble_run_result(
            stores=stores,
            returns=[self.returns.get(r) for r in range(system.nprocs)],
            engine=engine_name,
            channel_stats=merge_channel_stats(system, self.stats),
            logs=self.logs,
            observations=self.observations if observe else None,
            causal=trace_causal,
            report_name=report_name,
        )


def collect_results(
    system: System, procs, parent_conns, crash_grace: float, needs=None
) -> Collected:
    """Multiplex result streams + sentinels until every rank is terminal.

    The one collection loop of every process-backed run, over a pool's
    socketpairs and over TCP: ready notices (timing only — nothing is
    sent back), done/error frames, sentinel reaping into
    :class:`WorkerCrashError`, and the post-first-failure grace window
    (``crash_grace`` seconds) before survivors are terminated.  It
    waits for the ranks ``parent_conns`` names — every rank of a run,
    or those dispatched before its setup was abandoned
    (:func:`run_on_pool`); ``procs`` is indexed by rank.

    ``needs`` is the TCP coordinator's: per rank, the frame that
    answers a daemon's ``("need", rank)`` — sent before ``ready`` by a
    daemon that does not hold the rank's constants
    (:func:`repro.dist.net.engine.run_assigned`).  A pool worker never
    asks.

    ``procs`` entries need not be local processes: the socket engine
    passes proxies for ranks living in remote daemons, with
    ``sentinel=None`` (there is no local fd to watch — the result
    connection itself is the liveness signal) and ``is_alive()`` always
    false.  A connection that drops before its rank's terminal report —
    EOF, stream abort, or reset — is therefore treated as that rank's
    crash unless the local process object is demonstrably still alive.
    """
    ranks = sorted(parent_conns.values())
    sentinels = {
        procs[rank].sentinel: rank
        for rank in ranks
        if procs[rank].sentinel is not None
    }
    conn_of = {rank: conn for conn, rank in parent_conns.items()}
    terminal: set[int] = set()
    ready: set[int] = set()
    out = Collected()
    deadline: float | None = None

    def fail(rank: int, exc: BaseException) -> None:
        nonlocal deadline
        terminal.add(rank)
        out.errors.setdefault(rank, exc)
        if deadline is None:
            deadline = time.perf_counter() + crash_grace

    def handle(rank: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ready":
            ready.add(rank)
            if len(ready) == system.nprocs:
                out.t_run0 = time.perf_counter()
        elif kind == "need":
            conn = conn_of[rank]
            try:
                wire.send(conn, needs[rank])
            except (OSError, TransportError) as exc:
                # The daemon died between asking and being answered.
                live_conns.pop(conn, None)
                fail(rank, exc)
        elif kind == "done":
            payload = msg[2]
            out.returns[rank] = payload["return"]
            out.overrides[rank] = payload["overrides"]
            out.stats[rank] = payload["stats"]
            if payload["obs"] is not None:
                out.observations[rank] = payload["obs"]
            if payload["log"] is not None:
                out.logs[rank] = payload["log"]
            terminal.add(rank)
        elif kind == "error":
            fail(rank, _rebuild_exception(msg[2]))

    live_conns = dict(parent_conns)
    while len(terminal) < len(ranks):
        timeout = None
        if deadline is not None:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                break
        pending_sentinels = [
            s for s, r in sentinels.items() if r not in terminal
        ]
        # Buffered frame streams may hold a complete report in user
        # space with nothing left on the fd — wait() would block past
        # it.  Serve those first; only a fully drained set blocks.
        buffered = [
            c for c in live_conns if getattr(c, "has_buffered", False)
        ]
        if buffered:
            fired = buffered + [
                c
                for c in mp_connection.wait(
                    list(live_conns) + pending_sentinels, 0
                )
                if c not in buffered
            ]
        else:
            fired = mp_connection.wait(
                list(live_conns) + pending_sentinels, timeout
            )
        for obj in fired:
            if obj in live_conns:
                rank = live_conns[obj]
                try:
                    msg = wire.recv(obj)
                except (EOFError, OSError, TransportAbortError):
                    del live_conns[obj]
                    if rank not in terminal:
                        # The result stream died before a terminal
                        # report.  For a local process the sentinel
                        # usually beats us here; for a remote rank this
                        # EOF *is* the death notice.
                        procs[rank].join(timeout=1.0)
                        if not procs[rank].is_alive():
                            fail(
                                rank,
                                WorkerCrashError(
                                    rank, procs[rank].exitcode
                                ),
                            )
                    continue
                handle(rank, msg)
            else:
                rank = sentinels[obj]
                # Drain any final report racing the process exit.
                conn = conn_of[rank]
                try:
                    while conn in live_conns and conn.poll(0):
                        handle(rank, wire.recv(conn))
                except (EOFError, OSError, TransportAbortError):
                    live_conns.pop(conn, None)
                if rank not in terminal:
                    procs[rank].join(timeout=1.0)
                    fail(
                        rank,
                        WorkerCrashError(rank, procs[rank].exitcode),
                    )

    # Grace expired: the survivors are presumed wedged.
    for rank in ranks:
        if rank not in terminal:
            if procs[rank].is_alive():
                procs[rank].terminate()
                procs[rank].join(timeout=5.0)
            fail(rank, WorkerCrashError(rank, procs[rank].exitcode))
    out.t_run1 = time.perf_counter()
    return out


def build_channel_endpoints(system: System) -> tuple[list, list, list]:
    """One ``AF_UNIX`` socketpair per channel, split per rank.

    Returns ``(w_specs, r_specs, socks)``: per-rank writer/reader
    :class:`EndpointSpec` lists whose ``conn`` is the raw socket end —
    it crosses :meth:`~repro.dist.pool.WorkerPool.dispatch` as
    ``SCM_RIGHTS`` and the worker wraps it — and every end, for the
    parent to close once the workers hold duplicates.
    """
    nprocs = system.nprocs
    w_specs: list[list[EndpointSpec]] = [[] for _ in range(nprocs)]
    r_specs: list[list[EndpointSpec]] = [[] for _ in range(nprocs)]
    socks: list[socket.socket] = []
    for spec in system.channel_specs:
        w_sock, r_sock = socket.socketpair()
        socks += (w_sock, r_sock)
        w_specs[spec.writer].append(
            EndpointSpec(spec.name, spec.writer, spec.reader, "w", w_sock)
        )
        r_specs[spec.reader].append(
            EndpointSpec(spec.name, spec.writer, spec.reader, "r", r_sock)
        )
    return w_specs, r_specs, socks


def run_on_pool(
    pool: WorkerPool,
    system: System,
    bodies: list | None = None,
    *,
    recv_timeout: float | None = None,
    observe: bool = False,
    crash_grace: float = 5.0,
    trace_causal: bool = False,
    report_name: str | None = None,
    timing_sink: dict | None = None,
) -> RunResult:
    """One run of ``system`` on ``pool``'s workers, start to finish.

    One borrowed worker per rank, endpoints, stores into the pool's
    arena, one result stream per rank, dispatch, collection, readback;
    workers go back to the pool whatever happens, so concurrent callers
    — engines, servers, threads — share a pool freely.  They go back
    idle: a run that fails — during setup too, even when a
    :meth:`~repro.dist.pool.WorkerPool.dispatch` raises — first waits
    for every rank it dispatched, as :func:`collect_results` does for
    any failure.  The run packs are lent to the result and go back when
    its arrays die; a failed run's go back once its ranks are
    terminal.  (The resident packs holding the system's
    constants are not "this run's": they stay with the arena for as
    long as the system lives, and a concurrent or later run of it maps
    the same ones.)  ``bodies`` are the per-rank ``("image", digest,
    bytes)`` payloads (default: the system's once-pickled images,
    :func:`repro.dist.closures.body_payloads`); the remaining keywords
    are :class:`MultiprocessEngine`'s.  ``report_name`` labels the
    merged observation report (default: the engine's name).
    ``timing_sink``, when given, receives :meth:`Collected.timing` and
    the coordinator's ``share_s`` / ``dispatch_s`` / ``readback_s``
    (0.0 for a phase not reached) even when the run fails.
    """
    t_start = time.perf_counter()
    nprocs = system.nprocs
    arena = pool.arena
    if bodies is None:
        bodies = closures.body_payloads(system)
    seg_names: list[str] = []
    child_socks: list[socket.socket] = []
    parent_conns: dict[Any, int] = {}
    slots: list = []
    collected: Collected | None = None
    stores: list[dict[str, Any]] | None = None
    phases = dict.fromkeys(("share_s", "dispatch_s", "readback_s"), 0.0)
    try:
        # Workers first: one forked now must not inherit this run's
        # socket ends, or a dead writer's reader would never see EOF.
        slots = pool.checkout(nprocs)

        # Stores: large arrays into a resident and a run pack, the rest
        # by value.
        t0 = time.perf_counter()
        plans: list[dict[str, tuple]] = []
        rests: list[dict[str, Any]] = []
        with pool.arena_lock:
            for p in system.processes:
                plan, rest = arena.share_store(p.store)
                plans.append(plan)
                rests.append(rest)
                # Every pack a plan names; recycle() knows which of
                # them are run packs.
                seg_names.extend({entry[0] for entry in plan.values()})
        t1 = time.perf_counter()
        phases["share_s"] = t1 - t0

        # Channel sockets and per-rank endpoint specs, then one control
        # frame per rank, carrying duplicates of its socket ends
        # in-band: its channels' and its result stream's.
        w_specs, r_specs, child_socks = build_channel_endpoints(system)
        abandoned: Exception | None = None
        for rank, slot in enumerate(slots):
            parent_sock, child_sock = socket.socketpair()
            child_socks.append(child_sock)
            try:
                pool.dispatch(
                    slot,
                    system,
                    rank,
                    child_sock,
                    body=bodies[rank],
                    plan=plans[rank],
                    rest=rests[rank],
                    w_specs=w_specs[rank],
                    r_specs=r_specs[rank],
                    recv_timeout=recv_timeout,
                    observe=bool(observe),
                    trace_causal=bool(trace_causal),
                )
            except Exception as exc:
                # Setup is abandoned, but the ranks dispatched so far
                # are running: they are collected below like the ranks
                # of any failed run, then the error is raised.
                parent_sock.close()
                abandoned = exc
                break
            parent_conns[FrameStream(parent_sock)] = rank
        # The parent's copies must close so a dead writer's reader
        # sees EOF rather than a silently-held-open socket — the EOF
        # cascade that unwinds the peers of a rank that failed, or was
        # never dispatched.
        for sock in child_socks:
            sock.close()
        phases["dispatch_s"] = time.perf_counter() - t1

        collected = collect_results(
            system, [slot.proc for slot in slots], parent_conns, crash_grace
        )
        if abandoned is not None:
            raise abandoned

        # Workers are finished: no process writes the run packs again
        # until the pool reuses them, and it reuses none before the
        # result's arrays die.  Constants are the system's own arrays,
        # packed or by value.  A failed run lends nothing (finish()
        # raises below).
        if not collected.errors:
            t2 = time.perf_counter()
            with pool.arena_lock:
                stores = [
                    {
                        **by_value_constants(plans[rank], rests[rank]),
                        **arena.readback(plans[rank]),
                        **collected.overrides[rank],
                    }
                    for rank in range(nprocs)
                ]
            phases["readback_s"] = time.perf_counter() - t2
    finally:
        for conn in (*child_socks, *parent_conns):
            conn.close()
        # Every dispatched rank is terminal once collected, so the
        # workers go back idle and a failed run's packs are written by
        # nobody: they are recycled.  A run cut short before collection
        # leaves its packs in use, owned until pool shutdown.
        pool.checkin(slots)
        if collected is not None and stores is None:
            with pool.arena_lock:
                arena.recycle(seg_names)
        if timing_sink is not None:
            timing_sink.update(
                (collected or Collected()).timing(t_start), **phases
            )
    return collected.finish(
        system, stores, "multiprocess", observe, trace_causal, report_name
    )


class MultiprocessEngine:
    """Run a :class:`~repro.runtime.system.System` on OS processes.

    Parameters
    ----------
    recv_timeout:
        Optional upper bound, in seconds, on any single blocking
        receive inside a worker (same semantics as the threaded
        engine).  ``None`` waits indefinitely.
    observe:
        Truthy runs a fresh per-worker observer in every rank and
        merges the payloads into the result's ``report``.  A shared
        :class:`~repro.obs.observer.Observer` instance cannot span
        address spaces, so unlike the in-process engines only the
        boolean form is accepted.
    start_method:
        How workers are started: ``"spawn"`` (default, per the model: a
        pristine interpreter per rank) or ``"fork"`` (cheaper startup).
        Bodies cross by value either way.
    crash_grace:
        After the first worker failure, how long to wait for the
        remaining workers to unwind on their own (via the EOF cascade)
        before terminating them.
    pool:
        ``False`` boots fresh workers for every run — a
        :class:`~repro.dist.pool.WorkerPool` scoped to the run, so
        nothing outlives it.  ``True`` lazily creates an owned pool on
        first run, reused by every subsequent run until :meth:`close`.
        An existing ``WorkerPool`` instance is used without being owned
        (the caller shuts it down) and may be shared with other engines
        and servers.
    trace_causal:
        Lamport stamps on every message; the per-rank event logs
        (:mod:`repro.runtime.trace`), shipped home in the done payload,
        are merged by clock into the result's ``causal``
        :class:`~repro.runtime.trace.Trace`.  This is the
        tracing the process engines *can* do — a happens-before partial
        order needs no global observation order — and it is a pure
        refinement: final field state is bitwise identical on/off.

    Attributes
    ----------
    last_timing:
        ``{"startup_s", "run_s", "total_s"}`` for the most recent run —
        ``startup_s`` ends at the last rank's ``ready`` notice and
        ``run_s`` covers the span from there to the last worker's
        terminal report, which is what the benchmark harness compares
        across engines.  No rank waits for that notice: an early rank
        starts its body, and may even finish, inside ``startup_s``.
        After a run in which some rank never reported ready,
        ``startup_s`` is ``None``.  Beside them,
        the coordinator's own phases: ``share_s`` (stores into the
        arena) and ``dispatch_s`` (sockets and control frames), both
        inside ``startup_s``, and ``readback_s`` (the result's stores),
        after ``run_s``; 0.0 for a phase the run did not reach.

    A result's variables are views into shared memory that stay valid
    after the engine is closed (:class:`~repro.runtime.system.RunResult`).
    """

    name = "multiprocess"

    def __init__(
        self,
        trace: bool = False,
        recv_timeout: float | None = None,
        observe=False,
        start_method: str = "spawn",
        crash_grace: float = 5.0,
        pool=False,
        trace_causal: bool = False,
    ):
        if trace:
            raise RuntimeModelError(
                "the multiprocess engine cannot trace: trace=True asks for "
                "the observed order, and separate address spaces have none; "
                "use trace_causal=True for the same events in "
                "happens-before order, or the threaded/cooperative engine "
                "for an observed one"
            )
        if start_method not in ("spawn", "fork"):
            raise ValueError(f"unsupported start method {start_method!r}")
        self._start_method = start_method
        #: The per-run keywords of :func:`run_on_pool`.
        self._run_opts = dict(
            recv_timeout=recv_timeout,
            observe=observe,
            crash_grace=crash_grace,
            trace_causal=trace_causal,
        )
        self._pool_opt = pool
        self._pool = None if isinstance(pool, bool) else pool
        self._owned_pool = None
        self.last_timing: dict[str, float] = {}

    # -- pool plumbing -------------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = self._owned_pool = WorkerPool(self._start_method)
        return self._pool

    def close(self) -> None:
        """Shut down the owned worker pool, if any.  Idempotent."""
        if self._owned_pool is not None:
            self._owned_pool.shutdown()
            self._owned_pool = None
            self._pool = None

    def __enter__(self) -> "MultiprocessEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run ----------------------------------------------------------------

    def run(self, system: System) -> RunResult:
        # ``is False``: an empty WorkerPool instance is falsy too.
        scoped = self._pool_opt is False
        pool = WorkerPool(self._start_method) if scoped else self._ensure_pool()
        timing: dict[str, float] = {}
        try:
            return run_on_pool(
                pool,
                system,
                **self._run_opts,
                timing_sink=timing,
            )
        finally:
            if scoped:
                pool.shutdown()
            self.last_timing = timing
