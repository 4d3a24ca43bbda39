"""The fleet scheduler: ``submit() → Future`` across worker daemons.

:class:`FleetScheduler` is the multi-daemon sibling of the single-pool
:class:`~repro.dist.serve.JobServer` — the same
:class:`~repro.dist.serving.JobServerCore` front door (admission
control, ready queue, futures, accounting), with "capacity" redefined
from pool slots to *per-daemon rank reservations* across a fleet of
:class:`~repro.dist.net.daemon.WorkerDaemon`\\ s:

* **placement** — :func:`~repro.dist.fleet.placement.least_loaded`
  gang-places every rank of a job onto the alive daemons with the most
  free capacity, fed by the daemons' own heartbeat stats;
* **membership** — a :class:`~repro.dist.fleet.membership
  .HeartbeatMonitor` pings every daemon; ``miss_threshold`` missed
  beats mark it dead (excluded from placement, queued jobs re-woken),
  an answered ping revives it, and the elastic controller grows or
  shrinks each daemon's capacity from its observed utilization;
* **retry / re-placement** — a daemon dying mid-job (control-stream
  EOF without goodbye, a refused dial, a reset data stream) fails only
  that *attempt*: the scheduler probes the placement, marks the
  unreachable daemons dead, re-places the job on the survivors under a
  fresh job id, and re-runs — up to ``max_attempts``, after which the
  job's future gets the :class:`~repro.errors.ProcessFailedError`.
  Errors raised by the job's own body are never retried.

**Why a silent re-run is sound** (the determinacy argument): Theorem 1
makes a job's final state a function of the *program*, not the
schedule, the engine, or the hosts — every run of the same system
produces bitwise-identical stores.  A re-placed attempt is therefore
semantically invisible: the caller cannot distinguish "ran once on
daemon A" from "A died; re-ran on daemon B" by any observation of the
result.  Fault tolerance falls out of the paper's theory for free, and
the tests assert exactly this (mid-job daemon kill → bitwise-identical
result).

Jobs run on the daemons through exactly the socket engine's dispatch
path (:func:`~repro.dist.net.engine.run_assigned`) — bodies and
variables travel by value, constants once per daemon, channels
rendezvous peer-to-peer between daemons, control connections are
parked between jobs in the scheduler's own
:class:`~repro.dist.net.rendezvous.StreamPool` — so every
transport/goodbye/crash semantic is shared, not re-implemented.
"""

from __future__ import annotations

from typing import Any

from repro.dist import closures
from repro.dist.engine import WorkerCrashError
from repro.dist.fleet.membership import (
    DaemonState,
    HeartbeatMonitor,
    probe_stats,
)
from repro.dist.fleet.placement import least_loaded
from repro.dist.net import rendezvous
from repro.dist.net.engine import (
    fresh_job_id,
    run_assigned,
    spawn_loopback_daemons,
    stop_loopback_daemons,
)
from repro.dist.serving import (
    JobServerCore,
    JobStats,
    ServerClosedError,
    _Job,
)
from repro.errors import (
    ProcessFailedError,
    RendezvousError,
    TransportError,
)
from repro.runtime.system import RunResult, System

__all__ = [
    "FleetScheduler",
    "ServerClosedError",
    "JobStats",
]


class _Grant:
    """One job's current reservation: a daemon per rank.  Mutable — a
    retry re-places in place, so the core's single release-in-finally
    always returns whatever the job holds *now*."""

    __slots__ = ("assign",)

    def __init__(self, assign: list[DaemonState]):
        self.assign = assign


def _retryable(exc: BaseException) -> bool:
    """Infrastructure failure (daemon death, broken rendezvous) — yes;
    the job's own body raising — no."""
    if isinstance(exc, ProcessFailedError):
        return isinstance(
            exc.original,
            (TransportError, WorkerCrashError, EOFError, OSError),
        )
    return isinstance(exc, (TransportError, OSError))


class FleetScheduler(JobServerCore):
    """Serve many Systems concurrently across a fleet of worker daemons.

    Parameters
    ----------
    daemons:
        How many loopback daemons to spawn and own (default 2).  Their
        processes are exposed as :attr:`local_procs` so tests can kill
        one mid-job.
    capacity:
        Initial (and floor) ranks placed concurrently per daemon
        (default 4); the elastic controller grows it to
        :data:`~repro.dist.fleet.membership.MAX_CAPACITY` under
        saturation and shrinks back when idle.
    max_inflight:
        Admission control, as on :class:`~repro.dist.serve.JobServer`:
        at the bound :meth:`submit` blocks (default: the fleet's total
        floor capacity).
    max_attempts:
        Execution attempts per job before its future fails (default 3).
    heartbeat_interval / miss_threshold / ping_timeout:
        The liveness knobs: a daemon missing ``miss_threshold``
        consecutive pings (every ``heartbeat_interval`` seconds) is
        dead until a ping answers again.
    elastic:
        Enable the per-daemon elastic capacity controller.  Without it
        a daemon's capacity stays at ``capacity``.
    crash_grace / handshake_timeout:
        Per-job run knobs, as on the socket engine.

    A job must fit the fleet's floor, ``daemons x capacity`` ranks, or
    :meth:`submit` raises ``ValueError``: the controller grows only a
    daemon that is already running at its capacity, so a larger job
    would wait on an idle fleet for ever.
    """

    def __init__(
        self,
        *,
        daemons: int = 2,
        capacity: int = 4,
        max_inflight: int | None = None,
        max_attempts: int = 3,
        heartbeat_interval: float = 0.5,
        miss_threshold: int = 3,
        ping_timeout: float = 2.0,
        elastic: bool = True,
        crash_grace: float = 5.0,
        handshake_timeout: float = 30.0,
    ):
        if daemons < 1:
            raise ValueError(f"daemons must be >= 1, got {daemons}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        super().__init__(
            max_inflight=(
                daemons * capacity if max_inflight is None else max_inflight
            )
        )
        addrs, self.local_procs = spawn_loopback_daemons(
            daemons, handshake_timeout
        )
        self.max_attempts = max_attempts
        self._crash_grace = crash_grace
        self._handshake_timeout = handshake_timeout
        self._ping_timeout = ping_timeout
        self._elastic = bool(elastic)
        #: Ranks an idle fleet places at once (see the class docstring).
        self._rank_ceiling = len(addrs) * capacity

        self._daemons = [
            DaemonState(address=a, capacity=capacity, floor=capacity)
            for a in addrs
        ]
        self._retries = 0
        self._deaths = 0
        #: Control connections between jobs; closed with the scheduler.
        self._streams = rendezvous.StreamPool()

        self._monitor = HeartbeatMonitor(
            self._daemons,
            self._cv,
            interval=heartbeat_interval,
            miss_threshold=miss_threshold,
            ping_timeout=ping_timeout,
            elastic=self._elastic,
            notify=self._cv.notify_all,
            on_death=self._record_death,
        )
        self._monitor.start()

    # -- membership ----------------------------------------------------------

    @property
    def daemon_addresses(self) -> list[rendezvous.Address]:
        return [d.address for d in self._daemons]

    def daemon_states(self) -> list[dict[str, Any]]:
        """Per-daemon membership/load snapshot (for dashboards/tests)."""
        with self._cv:
            return [d.snapshot() for d in self._daemons]

    def _record_death(self, daemon: DaemonState) -> None:
        # Called under _cv (by the monitor or a failure probe).
        self._deaths += 1

    def _note_failure(self, assign: list[DaemonState]) -> None:
        """After a failed attempt: probe each daemon of the placement
        (fail-fast, outside the lock) and mark the unreachable ones
        dead *now* — re-placement must not wait out miss_threshold
        heartbeats to learn what the crash already proved."""
        seen: dict[int, DaemonState] = {id(d): d for d in assign}
        for d in seen.values():
            stats = probe_stats(d.address, timeout=self._ping_timeout)
            with self._cv:
                if stats is None:
                    if d.alive:
                        d.alive = False
                        self._record_death(d)
                    self._cv.notify_all()
                else:
                    d.alive = True
                    d.misses = 0
                    d.stats = stats

    # -- capacity hooks (under _cv) ------------------------------------------

    def _check_admissible(self, system: System) -> None:
        if system.nprocs > self._rank_ceiling:
            n = len(self._daemons)
            raise ValueError(
                f"job needs {system.nprocs} ranks but the fleet tops out "
                f"at {self._rank_ceiling} "
                f"({n} daemons x {self._rank_ceiling // n})"
            )

    def _try_reserve(self, job: _Job):
        if not any(d.alive for d in self._daemons):
            raise ProcessFailedError(
                0, RendezvousError("no alive daemons in the fleet")
            )
        assign = least_loaded(job.system.nprocs, self._daemons)
        if assign is None:
            return None
        self._reserve(assign)
        return _Grant(assign)

    def _reserve(self, assign: list[DaemonState]) -> None:
        for d in assign:
            d.reserved += 1

    def _release(self, job: _Job, grant) -> None:
        for d in grant.assign:
            d.reserved -= 1

    # -- execution with retry ------------------------------------------------

    def _prepare(self, job: _Job):
        # Body pickling is pure CPU on this side and needs no capacity.
        # Stores need no preparing: every attempt ships the variables
        # and names the constants by token, so a retry placed on a
        # daemon that already holds them sends them no second time.
        return closures.body_payloads(job.system)

    def _execute(self, job: _Job, bodies, grant) -> RunResult:
        attempt = 0
        while True:
            attempt += 1
            with self._cv:
                assign = list(grant.assign)
            job.stats.attempts = attempt
            job.stats.placed_on = [d.host for d in assign]
            try:
                return run_assigned(
                    job.system,
                    [d.address for d in assign],
                    fresh_job_id("fleet"),
                    handshake_timeout=self._handshake_timeout,
                    crash_grace=self._crash_grace,
                    engine_name="fleet",
                    bodies=bodies,
                    streams=self._streams,
                )
            except BaseException as exc:  # noqa: BLE001 - classified below
                if not _retryable(exc):
                    raise
                self._note_failure(assign)
                if attempt >= self.max_attempts:
                    if isinstance(exc, ProcessFailedError):
                        raise
                    raise ProcessFailedError(0, exc) from exc
                self._retries += 1
                self._replace(job, grant)

    def _replace(self, job: _Job, grant) -> None:
        """Swap the job's reservation for a fresh placement on the
        survivors (waiting for capacity if the fleet is busy); raises
        when no alive daemon remains or the server is shed."""
        with self._cv:
            self._release(job, grant)
            # The old hold is gone: empty the grant *before* anything
            # below can raise, or the core's release-in-finally would
            # return it a second time.
            grant.assign = []
            self._cv.notify_all()
            while True:
                if self._abort_queued:
                    raise ServerClosedError(
                        "server closed before the job could be re-placed"
                    )
                if not any(d.alive for d in self._daemons):
                    raise ProcessFailedError(
                        0,
                        RendezvousError(
                            "no alive daemons left to re-place the job on"
                        ),
                    )
                assign = least_loaded(job.system.nprocs, self._daemons)
                if assign is not None:
                    self._reserve(assign)
                    grant.assign = assign
                    return
                self._cv.wait()

    # -- lifecycle / accounting ----------------------------------------------

    def _close_resources(self) -> None:
        self._monitor.stop()
        self._streams.close()
        procs, self.local_procs = self.local_procs, []
        stop_loopback_daemons(self.daemon_addresses, procs)

    def _stats_extra(self, out, done) -> None:
        with self._cv:
            out["daemons"] = [d.snapshot() for d in self._daemons]
            out["daemons_alive"] = sum(1 for d in self._daemons if d.alive)
            out["retries"] = self._retries
            out["daemon_deaths"] = self._deaths
