"""Job-level serving on the worker pool: many small systems, one pool.

The whole-run :class:`~repro.dist.engine.MultiprocessEngine` maps one
:class:`~repro.runtime.system.System` onto the pool at a time; a
:class:`JobServer` accepts many — :meth:`JobServer.submit` returns a
:class:`concurrent.futures.Future` immediately and the server keeps
every pool slot busy: each admitted job is prepared (bodies pickled)
*concurrently with* other jobs' execution, waits for enough free slots,
runs as one :func:`~repro.dist.engine.run_on_pool` call — the same
dispatch/collect path as an engine run, borrowing its workers
exclusively — and returns its slots the moment it completes, and its
run packs once the caller drops its result.

The submit/Future/backpressure machinery itself lives in
:mod:`repro.dist.serving` (:class:`~repro.dist.serving.JobServerCore`)
and is shared with the multi-host
:class:`~repro.dist.fleet.FleetScheduler`; this module binds it to one
local :class:`~repro.dist.pool.WorkerPool`, where "capacity" means pool
slots.

**Why concurrent jobs are safe** (the determinacy argument): each job
is a closed system in the paper's model — its ranks talk only over that
job's own SRSW channels, its store *variables* live in that job's own
run packs, and its workers hold no state between jobs (a parked pool
worker runs one ``run_job`` at a time and touches nothing global).  Two
jobs in flight therefore share no channel, rank or writable segment —
two jobs of one ``System`` do map the same resident pack of its
constants (:mod:`repro.dist.shm`), which nobody can write — so by
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

**Observability**: every job has one :class:`JobStats` record (label,
ranks, submit/dispatch/done times, start-up share); the server owns an
:class:`~repro.obs.observer.Observer` whose counters track submissions
/ completions / failures / rejections and whose gauges track in-flight
and queued depth (with high-water marks), and :meth:`stats` aggregates
per-job latencies into throughput, p50/p95, and slot utilization.
"""

from __future__ import annotations

from repro.dist import closures
from repro.dist.engine import run_on_pool
from repro.dist.pool import WorkerPool
from repro.dist.serving import (
    JobServerCore,
    JobStats,
    ServerClosedError,
    ServerSaturatedError,
    _Job,
)
from repro.obs.observer import Observer
from repro.runtime.system import RunResult, System

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
        creates one and shuts it down on :meth:`close`.  Engines and
        other servers may run on the same pool concurrently.
    observer:
        An :class:`~repro.obs.observer.Observer` to record into
        (default: a fresh one, exposed as :attr:`observer`).
    start_method / recv_timeout / observe / crash_grace / trace_causal:
        As on :class:`~repro.dist.engine.MultiprocessEngine`, applied
        per job.  With ``trace_causal=True`` each job's result carries
        its own happens-before :class:`~repro.runtime.trace.Trace` and
        the job's :class:`JobStats` summarises it (event count, causal depth) —
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
        crash_grace: float = 5.0,
        trace_causal: bool = False,
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        super().__init__(
            max_inflight=max_inflight or pool_size,
            on_full=on_full,
            observer=observer,
        )
        self._owns_pool = pool is None
        self.pool = WorkerPool(start_method) if pool is None else pool
        self.pool_size = pool_size
        #: The per-job keywords of :func:`run_on_pool`.
        self._run_opts = dict(
            recv_timeout=recv_timeout,
            observe=observe,
            crash_grace=crash_grace,
            trace_causal=trace_causal,
        )
        self._free_slots = pool_size  # scheduling capacity (not processes)

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
        timing: dict[str, float] = {}
        try:
            return run_on_pool(
                self.pool,
                job.system,
                prepared,
                **self._run_opts,
                report_name="serve",
                timing_sink=timing,
            )
        finally:
            # None unless every rank reported ready.
            job.stats.startup_s = timing.get("startup_s")
