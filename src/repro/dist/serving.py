"""The job/Future/backpressure core shared by every job-level server.

Two front doors multiplex many small :class:`~repro.runtime.system.System`
runs behind ``submit() -> Future``: the single-host
:class:`~repro.dist.serve.JobServer` (jobs onto one local
:class:`~repro.dist.pool.WorkerPool`) and the multi-host
:class:`~repro.dist.fleet.FleetScheduler` (jobs onto a fleet of
:class:`~repro.dist.net.daemon.WorkerDaemon`\\ s).  Everything that is
*about jobs* rather than about where they run lives here, once:

* **admission control** — ``max_inflight`` bounds
  admitted-but-unfinished jobs; at the bound ``on_full="block"`` makes
  :meth:`JobServerCore.submit` wait and ``on_full="reject"`` raises
  :class:`ServerSaturatedError` (open-loop load shedding);
* **the ready queue** — admitted jobs wait FIFO (admission order) for
  capacity; what "capacity" means is the subclass's business, expressed
  through the :meth:`JobServerCore._try_reserve` /
  :meth:`JobServerCore._release` hooks (pool slots for the local
  server, per-daemon rank reservations for the fleet);
* **the future protocol** — cancellation before dispatch, exceptions
  contained to their own future, ``close(drain=...)`` settling every
  admitted job;
* **accounting** — per-job :class:`JobStats` records (a job's one
  record: label, ranks, submit/dispatch/done times, attempts,
  placement), counters/gauges in the owner's
  :class:`~repro.obs.observer.Observer`, and the aggregate
  :meth:`JobServerCore.stats` summary (throughput, latency
  percentiles, queue waits).

Subclasses implement four hooks: ``_check_admissible`` (reject jobs
that can never run), ``_prepare`` (CPU-side work that needs no
capacity, e.g. body pickling — runs concurrently with other jobs'
execution), ``_try_reserve``/``_release`` (capacity under the shared
condition variable), and ``_execute`` (run the job to a
:class:`~repro.runtime.system.RunResult`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from repro.obs.observer import Observer
from repro.runtime.system import RunResult, System

__all__ = [
    "JobServerCore",
    "JobStats",
    "ServerSaturatedError",
    "ServerClosedError",
    "percentile",
]


class ServerSaturatedError(RuntimeError):
    """``submit`` on a full server with ``on_full="reject"``."""


class ServerClosedError(RuntimeError):
    """``submit`` on a closed server, or a queued job cancelled by
    ``close(drain=False)``."""


@dataclass
class JobStats:
    """One served job's accounting (see ``job_stats()``)."""

    job_id: int
    label: str
    nprocs: int
    t_submit: float
    t_dispatch: float | None = None
    t_done: float | None = None
    ok: bool | None = None  # None while in flight
    #: Execution attempts (>1 when a fleet re-placed the job after a
    #: daemon death; always 1 on the single-host server).
    attempts: int = 1
    #: ``"host:port"`` strings of the daemons the *final* attempt ran
    #: on (fleet only; None on the single-host server).
    placed_on: list[str] | None = None
    #: Causal span-tree summary when the job ran with causal tracing:
    #: merged event count and trace depth (longest causal chain).
    causal_events: int | None = None
    causal_depth: int | None = None
    #: Start-up share of the service time: from the job's dispatch to
    #: its last rank's ready notice (endpoints built, stores shipped,
    #: every rank constructed; an early rank is running already).  None
    #: when some rank never reported ready.
    startup_s: float | None = None

    @property
    def queue_wait_s(self) -> float | None:
        if self.t_dispatch is None:
            return None
        return self.t_dispatch - self.t_submit

    @property
    def service_s(self) -> float | None:
        if self.t_done is None or self.t_dispatch is None:
            return None
        return self.t_done - self.t_dispatch

    @property
    def latency_s(self) -> float | None:
        if self.t_done is None:
            return None
        return self.t_done - self.t_submit


@dataclass
class _Job:
    stats: JobStats
    system: System
    future: Future = field(default_factory=Future)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    idx = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[int(idx)]


class JobServerCore:
    """Shared submit/backpressure/accounting core (see module docstring).

    Subclasses set :attr:`metric_prefix` (the observer counter/gauge
    namespace) and implement the capacity and execution hooks.  All
    capacity state must be guarded by :attr:`_cv` — every completion,
    release, and (for the fleet) membership change notifies it, which
    is what wakes jobs waiting in the ready queue.
    """

    #: Observer metric namespace (``serve/...``, ``fleet/...``).
    metric_prefix = "serve"

    def __init__(
        self,
        *,
        max_inflight: int,
        on_full: str = "block",
        observer: Observer | None = None,
    ):
        if on_full not in ("block", "reject"):
            raise ValueError(f"on_full must be block|reject, got {on_full!r}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.on_full = on_full
        self.observer = observer or Observer()

        self._cv = threading.Condition()
        self._inflight = 0
        self._closed = False
        self._abort_queued = False  # close(drain=False) sheds the queue
        self._threads: list[threading.Thread] = []
        self._records: list[JobStats] = []
        self._queued: list[_Job] = []  # admitted, waiting for capacity
        self._seq = 0

        reg = self.observer.registry
        p = self.metric_prefix
        self._c_submitted = reg.counter(f"{p}/jobs_submitted")
        self._c_completed = reg.counter(f"{p}/jobs_completed")
        self._c_failed = reg.counter(f"{p}/jobs_failed")
        self._c_rejected = reg.counter(f"{p}/jobs_rejected")
        self._g_inflight = reg.gauge(f"{p}/inflight")
        self._g_queued = reg.gauge(f"{p}/queue_depth")

    # -- subclass hooks ------------------------------------------------------

    def _check_admissible(self, system: System) -> None:
        """Raise ``ValueError`` for a job that can never run here."""

    def _prepare(self, job: _Job) -> Any:
        """Capacity-free preparation (body pickling); runs while other
        jobs execute.  The return value is passed to :meth:`_execute`."""
        return None

    def _try_reserve(self, job: _Job) -> Any:
        """Reserve capacity for ``job`` under :attr:`_cv`, or return
        ``None`` if none is free right now (the job keeps waiting).  A
        non-``None`` grant is handed to ``_execute`` and ``_release``.
        May raise to fail the job (e.g. the whole fleet is dead)."""
        raise NotImplementedError

    def _release(self, job: _Job, grant: Any) -> None:
        """Return ``grant``'s capacity, under :attr:`_cv`."""
        raise NotImplementedError

    def _execute(self, job: _Job, prepared: Any, grant: Any) -> RunResult:
        """Run the job (capacity held); raise to fail its future."""
        raise NotImplementedError

    def _stats_extra(
        self, out: dict[str, Any], done: list[JobStats], elapsed: float
    ) -> None:
        """Fold subclass-specific aggregates into :meth:`stats`."""

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, drain: bool = True) -> None:
        """Stop admitting jobs and settle the in-flight ones.

        ``drain=True`` (default) waits for every admitted job — queued
        and dispatched alike — to finish.  ``drain=False`` cancels jobs
        still waiting for capacity (their futures get
        :class:`ServerClosedError` unless already cancelled), waits
        only for the dispatched ones, and returns.  Subclasses tear
        down what they own in :meth:`_close_resources`.  Idempotent.
        """
        with self._cv:
            if self._closed:
                threads = list(self._threads)
            else:
                self._closed = True
                if not drain:
                    self._abort_queued = True
                    for job in list(self._queued):
                        job.future.cancel()
                threads = list(self._threads)
                self._cv.notify_all()
        for t in threads:
            t.join()
        self._close_resources()

    def _close_resources(self) -> None:
        """Tear down subclass-owned resources after the last job."""

    # -- submission ----------------------------------------------------------

    def submit(self, system: System, label: str = "") -> Future:
        """Admit one job; returns a Future resolving to its
        :class:`~repro.runtime.system.RunResult` (or raising the job's
        failure, typically :class:`~repro.errors.ProcessFailedError`)."""
        self._check_admissible(system)
        with self._cv:
            if self._closed:
                raise ServerClosedError("server is closed")
            if self._inflight >= self.max_inflight:
                if self.on_full == "reject":
                    self._c_rejected.inc()
                    raise ServerSaturatedError(
                        f"{self._inflight} jobs in flight "
                        f"(max_inflight={self.max_inflight})"
                    )
                while self._inflight >= self.max_inflight and not self._closed:
                    self._cv.wait()
                if self._closed:
                    raise ServerClosedError("server closed while waiting")
            self._inflight += 1
            self._g_inflight.set(self._inflight)
            self._seq += 1
            stats = JobStats(
                job_id=self._seq,
                label=label or f"job-{self._seq}",
                nprocs=system.nprocs,
                t_submit=time.perf_counter(),
            )
            job = _Job(stats=stats, system=system)
            self._records.append(stats)
            self._c_submitted.inc()
            thread = threading.Thread(
                target=self._serve_one,
                args=(job,),
                name=f"repro-{self.metric_prefix}-{stats.job_id}",
                daemon=True,
            )
            self._threads.append(thread)
        thread.start()
        return job.future

    # -- the per-job pipeline ------------------------------------------------

    def _serve_one(self, job: _Job) -> None:
        stats = job.stats
        try:
            # Prepare while other jobs execute: pure CPU on this side,
            # needs no capacity.
            prepared = self._prepare(job)

            # Wait for capacity (ready queue, admission order).
            grant = None
            with self._cv:
                self._queued.append(job)
                self._g_queued.set(len(self._queued))
                self._g_queued.update_max(len(self._queued))
                try:
                    while (
                        not self._abort_queued
                        and not job.future.cancelled()
                        and (
                            self._queued[0] is not job
                            or (grant := self._try_reserve(job)) is None
                        )
                    ):
                        self._cv.wait()
                finally:
                    self._queued.remove(job)
                    self._g_queued.set(len(self._queued))
                if self._abort_queued or job.future.cancelled():
                    if grant is not None:
                        self._release(job, grant)
                    if not job.future.cancelled():
                        job.future.set_exception(
                            ServerClosedError("server closed before dispatch")
                        )
                    return
                self._cv.notify_all()
            if not job.future.set_running_or_notify_cancel():
                with self._cv:
                    self._release(job, grant)
                    self._cv.notify_all()
                return

            stats.t_dispatch = time.perf_counter()
            try:
                result = self._execute(job, prepared, grant)
                if result.causal is not None:
                    stats.causal_events = len(result.causal)
                    stats.causal_depth = result.causal.depth
            finally:
                stats.t_done = time.perf_counter()
                with self._cv:
                    self._release(job, grant)
                    self._cv.notify_all()
            stats.ok = True
            self._c_completed.inc()
            job.future.set_result(result)
        except BaseException as exc:  # noqa: BLE001 - future carries it
            stats.ok = False
            self._c_failed.inc()
            if not job.future.done():
                job.future.set_exception(exc)
        finally:
            with self._cv:
                self._inflight -= 1
                self._g_inflight.set(self._inflight)
                self._threads.remove(threading.current_thread())
                self._cv.notify_all()

    # -- accounting ----------------------------------------------------------

    def job_stats(self) -> list[JobStats]:
        """Per-job records in submission order (snapshot)."""
        with self._cv:
            return list(self._records)

    def stats(self) -> dict[str, Any]:
        """Aggregate statistics over every finished job.

        ``throughput_jobs_per_s`` spans first submission to last
        completion; subclasses add their capacity-shaped aggregates
        (slot utilization, per-daemon placement counts) via
        :meth:`_stats_extra`.
        """
        with self._cv:
            records = list(self._records)
        done = [r for r in records if r.t_done is not None]
        out: dict[str, Any] = {
            "jobs_submitted": len(records),
            "jobs_done": len(done),
            "jobs_failed": sum(1 for r in done if r.ok is False),
            "max_inflight": self.max_inflight,
            "inflight_hwm": self._g_inflight.high_water,
            "queue_depth_hwm": self._g_queued.high_water,
        }
        if not done:
            self._stats_extra(out, done, 0.0)
            return out
        t0 = min(r.t_submit for r in done)
        t1 = max(r.t_done for r in done)
        elapsed = max(t1 - t0, 1e-9)
        latencies = sorted(r.latency_s for r in done)
        waits = sorted(
            r.queue_wait_s for r in done if r.queue_wait_s is not None
        )
        startups = sorted(
            r.startup_s for r in done if r.startup_s is not None
        )
        if startups:
            out["startup_ms_p50"] = percentile(startups, 0.50) * 1e3
        out.update(
            elapsed_s=elapsed,
            throughput_jobs_per_s=len(done) / elapsed,
            latency_p50_s=percentile(latencies, 0.50),
            latency_p95_s=percentile(latencies, 0.95),
            queue_wait_p50_s=percentile(waits, 0.50) if waits else 0.0,
            queue_wait_p95_s=percentile(waits, 0.95) if waits else 0.0,
        )
        self._stats_extra(out, done, elapsed)
        return out
