"""Job-level serving on the worker pool: many small systems, one pool.

The whole-run :class:`~repro.dist.engine.MultiprocessEngine` maps one
:class:`~repro.runtime.system.System` onto the pool at a time; a
:class:`JobServer` accepts many — :meth:`JobServer.submit` returns a
:class:`concurrent.futures.Future` immediately and the server keeps
every pool slot busy: each admitted job is prepared (bodies pickled)
*concurrently with* other jobs' execution, waits for enough free slots,
borrows them exclusively via :meth:`~repro.dist.pool.WorkerPool.checkout`,
runs through exactly the engine's dispatch/collect machinery
(:func:`~repro.dist.engine.build_channel_endpoints` /
:func:`~repro.dist.engine.collect_results`), and returns its slots and
shared segments the moment it completes.

The submit/Future/backpressure machinery itself lives in
:mod:`repro.dist.serving` (:class:`~repro.dist.serving.JobServerCore`)
and is shared with the multi-host
:class:`~repro.dist.fleet.FleetScheduler`; this module binds it to one
local :class:`~repro.dist.pool.WorkerPool`, where "capacity" means pool
slots.

**Why concurrent jobs are safe** (the determinacy argument): each job
is a closed system in the paper's model — its ranks talk only over that
job's own SRSW channels, its store arrays live in that job's own shared
segments, and its workers hold no state between jobs (a parked pool
worker runs one ``run_job`` at a time and touches nothing global).  Two
jobs in flight therefore share *no* channel, segment, or rank, so by
Theorem 1 every interleaving of their steps — including any schedule
the OS picks across the pool — leaves each job's final state exactly
what its sequential specification says.  Serving adds throughput, not
nondeterminism; the engine-equivalence tests assert this directly.

**Backpressure**: ``max_inflight`` bounds admitted-but-unfinished jobs.
At the bound, ``on_full="block"`` makes :meth:`submit` wait for a slot
(closed-loop clients) and ``on_full="reject"`` raises
:class:`ServerSaturatedError` immediately (open-loop clients shed
load).  Admitted jobs that need more slots than are currently free wait
in an internal ready queue ordered by admission.

**Observability**: the server owns an
:class:`~repro.obs.observer.Observer`; every job becomes a span
(queued + service phases), counters track submissions / completions /
failures / rejections, gauges track in-flight and queued depth (with
high-water marks), and :meth:`stats` aggregates per-job latencies into
throughput, p50/p95, and slot utilization.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.dist import closures
from repro.dist.engine import (
    MultiprocessEngine,
    _affinity_sets,
    build_channel_endpoints,
    collect_results,
)
from repro.dist.serving import (
    JobServerCore,
    JobStats,
    ServerClosedError,
    ServerSaturatedError,
    _Job,
)
from repro.dist.shm import DEFAULT_SLAB, DEFAULT_THRESHOLD
from repro.errors import ProcessFailedError
from repro.obs.observer import Observer
from repro.runtime.system import RunResult, System, assemble_run_result

__all__ = ["JobServer", "ServerSaturatedError", "ServerClosedError", "JobStats"]


class JobServer(JobServerCore):
    """Serve many Systems concurrently on one worker pool.

    Parameters
    ----------
    pool_size:
        Number of pool slots the server schedules over — the maximum
        ranks simultaneously executing.  A job with ``nprocs`` larger
        than this can never run and is rejected at submit.
    max_inflight:
        Bound on admitted-but-unfinished jobs (defaults to
        ``pool_size``): the backpressure knob.  With more in-flight
        jobs than free slots the surplus waits in the ready queue, so
        a finishing job's slots are re-dispatched without a round trip
        to the client.
    on_full:
        ``"block"`` (default) or ``"reject"`` — what :meth:`submit`
        does at the ``max_inflight`` bound.
    pool:
        Use (but do not own) an existing
        :class:`~repro.dist.pool.WorkerPool`; by default the server
        creates one and shuts it down on :meth:`close`.  Do not run a
        pooled engine and a server on the same pool concurrently —
        ``ensure`` and ``checkout`` hand out the same slots.
    observer:
        An :class:`~repro.obs.observer.Observer` to record into
        (default: a fresh one, exposed as :attr:`observer`).
    start_method / recv_timeout / observe / shm_threshold /
    payload_slab / crash_grace / affinity / trace_causal:
        As on :class:`~repro.dist.engine.MultiprocessEngine`, applied
        per job.  With ``trace_causal=True`` each job's result carries
        its own :class:`~repro.obs.causal.CausalTrace` and the job's
        :class:`JobStats` summarises it (event count, causal depth) —
        the per-job span trees the fleet-serving telemetry builds on.
    """

    def __init__(
        self,
        pool_size: int,
        *,
        max_inflight: int | None = None,
        on_full: str = "block",
        pool=None,
        observer: Observer | None = None,
        start_method: str = "fork",
        recv_timeout: float | None = None,
        observe: bool = False,
        shm_threshold: int = DEFAULT_THRESHOLD,
        payload_slab: int = DEFAULT_SLAB,
        crash_grace: float = 5.0,
        affinity=None,
        trace_causal: bool = False,
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        super().__init__(
            max_inflight=max_inflight or pool_size,
            on_full=on_full,
            observer=observer,
        )
        if pool is None:
            from repro.dist.pool import WorkerPool

            pool = WorkerPool(start_method)
            self._owns_pool = True
        else:
            self._owns_pool = False
        self.pool = pool
        self.pool_size = pool_size
        self._recv_timeout = recv_timeout
        self._observe = bool(observe)
        self._shm_threshold = shm_threshold
        self._payload_slab = max(0, int(payload_slab))
        self._crash_grace = crash_grace
        self._affinity = affinity
        self._trace_causal = bool(trace_causal)

        self._free_slots = pool_size  # scheduling capacity (not processes)
        self._arena_lock = threading.Lock()  # arena is not thread-safe

        # Boot every worker NOW, while this process is single-threaded:
        # forking from a live serving thread-pool can copy another
        # thread's held lock (pickler, import system)
        # into the child, which then wedges in its first recv.  With
        # the pool pre-sized, checkout never forks on the serving path
        # (only crash respawns do, and those are rare).
        self.pool.ensure(pool_size)

    # -- capacity: pool slots ------------------------------------------------

    def _check_admissible(self, system: System) -> None:
        if system.nprocs > self.pool_size:
            raise ValueError(
                f"job needs {system.nprocs} ranks but the server schedules "
                f"over {self.pool_size} slots"
            )

    def _try_reserve(self, job: _Job):
        nprocs = job.system.nprocs
        if self._free_slots < nprocs:
            return None
        self._free_slots -= nprocs
        return nprocs

    def _release(self, job: _Job, grant) -> None:
        self._free_slots += grant

    def _close_resources(self) -> None:
        if self._owns_pool:
            self.pool.shutdown()

    def _stats_extra(self, out, done, elapsed) -> None:
        out["pool_size"] = self.pool_size
        if not done or not elapsed:
            return
        busy = sum(
            r.service_s * r.nprocs for r in done if r.service_s is not None
        )
        out["slot_utilization"] = busy / (self.pool_size * elapsed)

    # -- the per-job pipeline ------------------------------------------------

    def _prepare(self, job: _Job):
        # Body pickling is pure CPU on this side and needs no slots;
        # a resubmitted System finds its images already made.
        return closures.body_payloads(job.system)

    def _execute(self, job: _Job, prepared, grant) -> RunResult:
        return self._run_job(job.system, prepared, job.stats)

    def _run_job(
        self, system: System, bodies: list, job_stats: JobStats
    ) -> RunResult:
        """One job through checkout → dispatch → collect → readback.

        The same protocol as a pooled engine run; segment names are
        tracked so exactly this job's segments recycle at the end.
        """
        t_start = time.perf_counter()
        pool = self.pool
        arena = pool.arena
        nprocs = system.nprocs
        affinity = _affinity_sets(self._affinity, nprocs)
        seg_names: list[str] = []
        parent_conns: dict[Any, int] = {}
        channel_conns: list = []
        child_conns: list = []
        slots: list = []
        collected = False
        try:
            with self._arena_lock:
                w_specs, r_specs, channel_conns, names = (
                    build_channel_endpoints(
                        system, pool.ctx, arena, self._payload_slab
                    )
                )
                seg_names.extend(names)
                plans, rests = [], []
                for p in system.processes:
                    plan, rest = arena.share_store(
                        p.store, self._shm_threshold
                    )
                    plans.append(plan)
                    rests.append(rest)
                    seg_names.extend(
                        name for name, _dt, _sh in plan.values()
                    )

            for p in system.processes:
                parent_conn, child_conn = pool.ctx.Pipe(duplex=True)
                parent_conns[parent_conn] = p.rank
                child_conns.append(child_conn)

            slots = pool.checkout(nprocs)
            for rank in range(nprocs):
                pool.dispatch(
                    slots[rank],
                    system,
                    rank,
                    child_conns[rank],
                    body=bodies[rank],
                    plan=plans[rank],
                    rest=rests[rank],
                    w_specs=w_specs[rank],
                    r_specs=r_specs[rank],
                    affinity=affinity[rank],
                    recv_timeout=self._recv_timeout,
                    observe=self._observe,
                    trace_causal=self._trace_causal,
                )
            # Workers hold fd duplicates; close ours so EOF stays exact.
            for conn in channel_conns:
                conn.close()
            for conn in child_conns:
                conn.close()

            procs = [slot.proc for slot in slots]
            (
                returns,
                overrides,
                stats,
                observations,
                causal_payloads,
                errors,
                t_run0,
                _t_run1,
            ) = collect_results(
                system, procs, parent_conns, self._crash_grace
            )
            collected = True
            if t_run0 is not None:
                job_stats.startup_s = t_run0 - t_start

            stores: list[dict[str, Any]] = []
            with self._arena_lock:
                for rank in range(nprocs):
                    store = arena.readback(plans[rank])
                    if rank in overrides:
                        store.update(overrides[rank])
                    else:
                        store.update(rests[rank])
                    stores.append(store)
        finally:
            if slots:
                pool.checkin(slots)
            if collected:
                # Only quiescent segments recycle; an abandoned setup
                # keeps its segments out of reuse until pool shutdown.
                with self._arena_lock:
                    arena.recycle(seg_names)
            # An abandoned setup still holds every end; closing the
            # result pipes is what unwinds ranks already dispatched.
            for conn in (*channel_conns, *child_conns, *parent_conns):
                try:
                    conn.close()
                except OSError:
                    pass

        if errors:
            rank = min(errors)
            raise ProcessFailedError(rank, errors[rank]) from errors[rank]
        records = MultiprocessEngine._merge_channel_stats(system, stats)
        report = None
        if self._observe:
            from repro.obs.report import merge_worker_observations

            report = merge_worker_observations(
                "serve", nprocs, observations, records
            )
        causal = None
        if causal_payloads:
            from repro.obs.causal import merge_causal_events

            causal = merge_causal_events(
                causal_payloads, nprocs, engine="multiprocess"
            )
        return assemble_run_result(
            stores=stores,
            returns=[returns.get(r) for r in range(nprocs)],
            engine="multiprocess",
            channel_stats=records,
            report=report,
            causal=causal,
        )
