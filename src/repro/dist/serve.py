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
and is shared with the multi-daemon
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

**Backpressure**: ``max_inflight`` bounds admitted-but-unfinished jobs;
at the bound :meth:`submit` waits for one to finish (closed-loop
clients).  Admitted jobs that need more slots than are currently free
wait in an internal ready queue ordered by admission.

**Observability**: every job has one :class:`JobStats` record (label,
ranks, submit/dispatch/done times, start-up share), from which a caller
derives latencies and queue waits; :meth:`stats` adds the job counts,
the in-flight high-water mark and slot utilization.
"""

from __future__ import annotations

from repro.dist import closures
from repro.dist.engine import run_on_pool
from repro.dist.pool import WorkerPool
from repro.dist.serving import (
    JobServerCore,
    JobStats,
    ServerClosedError,
    _Job,
)
from repro.runtime.system import RunResult, System

__all__ = ["JobServer", "ServerClosedError", "JobStats"]


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
        ``pool_size``): the backpressure knob.  At the bound
        :meth:`submit` blocks until a job finishes.  With more
        in-flight jobs than free slots the surplus waits in the ready
        queue, so a finishing job's slots are re-dispatched without a
        round trip to the client.
    start_method:
        How the server's own :class:`~repro.dist.pool.WorkerPool`
        starts its workers; the pool is shut down on :meth:`close`.
    """

    def __init__(
        self,
        pool_size: int,
        *,
        max_inflight: int | None = None,
        start_method: str = "fork",
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        super().__init__(
            max_inflight=pool_size if max_inflight is None else max_inflight
        )
        self.pool = WorkerPool(start_method)
        self.pool_size = pool_size
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
        self.pool.shutdown()

    def _stats_extra(self, out, done) -> None:
        out["pool_size"] = self.pool_size
        if not done:
            return
        # First submission to last completion.
        elapsed = max(
            max(r.t_done for r in done) - min(r.t_submit for r in done), 1e-9
        )
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
                report_name="serve",
                timing_sink=timing,
            )
        finally:
            # None unless every rank reported ready.
            job.stats.startup_s = timing.get("startup_s")
