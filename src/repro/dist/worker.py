"""What runs inside a worker for each rank it is given.

:func:`run_job` is the one rank-side entry point, called by the pool
workers of :mod:`repro.dist.pool` and by the worker daemons of
:mod:`repro.dist.net.daemon`.  A job rebuilds one rank's world — store
(attached to the parent's two shared packs, or put together from a
daemon's resident constants and the variables off the wire), channel
endpoints, context,
optional observer — runs the unmodified process body, and reports back
over a dedicated result stream (a
:class:`~repro.dist.net.frames.FrameStream`: one end of a socketpair in
a pool worker, the control connection in a daemon).

Result-stream protocol (all frames via :mod:`repro.dist.wire`):

* daemon → coordinator ``("need", rank)`` and coordinator → daemon
  ``("constants", token, arrays)`` — TCP only, and only when the
  daemon does not hold the rank's constants (:class:`ResidentConstants`,
  :mod:`repro.dist.net.daemon`): before anything below, so a hit adds
  no frame;
* worker → parent ``("ready", rank)`` once fully constructed — a
  one-way notice, so engine timing can separate startup from the run
  proper.  The rank runs its body at once: it does not wait for its
  peers, because a rank that starts first only blocks on its first
  receive (Theorem 1), and a peer that failed during setup reaches it
  through the same EOF cascade as a failure mid-run;
* worker → parent ``("done", rank, payload)`` with the body's return
  value, store overrides (by-value variables and whatever the body
  rebound — never a constant it left alone, see
  :func:`repro.dist.shm.flush_store`), per-endpoint channel statistics,
  and the observation payload when observing;
* worker → parent ``("error", rank, exc_info)`` when the body raised.

**Resident images.**  Pool workers and worker daemons outlive a run,
and a served :class:`~repro.runtime.system.System` sends the same body
image (same digest, :func:`repro.dist.closures.body_payloads`) every
time.  :class:`ResidentImages` keeps the bodies a worker has already
unpickled, so a resubmitted system re-runs the resident closure — as
the threaded engine always has — instead of unpickling it again.

Whatever happens, the ``finally`` block closes the rank's write
endpoints — flushing queued values and saying goodbye downstream, the
cross-process analogue of the threaded engine's close-wakes-readers
cascade.  Shared memory stays mapped: a pool worker keeps each segment
it has mapped for its next runs (:func:`repro.dist.shm.attach_store`).
A hard crash (the process dying without reporting) closes every fd
anyway, with no goodbye, so its readers fail naming it; the parent
notices via the process sentinel.
"""

from __future__ import annotations

import ctypes
import threading
import traceback
from typing import Any

from repro.dist import closures, wire
from repro.dist.channels import EndpointSpec, SocketChannel
from repro.dist.shm import attach_store, flush_store
from repro.errors import TransportError
from repro.runtime.context import Executor, ProcessContext, run_rank
from repro.runtime.trace import EventLog

__all__ = [
    "ResidentConstants",
    "ResidentImages",
    "run_job",
    "report_error",
]

#: Most idle unpickled bodies one worker keeps between runs.  A body
#: holds its kernels' scratch buffers, so this bounds what residency
#: adds to a worker's memory; the least recently run body goes first.
MAX_RESIDENT_IMAGES = 16


#: Most bytes of constants one worker daemon keeps between runs; the
#: least recently used set goes first.  A daemon hosting the host rank
#: and one grid rank of a 49^3 Version A system holds 19 MB for it (12
#: global coefficient arrays, 12 MB, and 12 ghosted half-grid sections,
#: 7 MB), so this is room for six such systems per daemon — and what
#: residency may add to a daemon's memory, beyond the sets of ranks
#: running now.
MAX_RESIDENT_CONSTANT_BYTES = 128 << 20


class ResidentImages:
    """The unpickled bodies one worker keeps between runs, by digest.

    Checkout is **exclusive**: a body is removed while a rank runs it
    and comes back in :func:`run_job`'s ``finally``.  A daemon runs
    ranks of concurrent jobs as threads of one process, and a body
    carries per-instance scratch (``KernelScratch``, ``Mur1`` planes,
    and each ``RankPass``'s step plan: the run's views, bound at its
    first step), so two ranks must never run one instance at once — the
    second unpickles its own, and both are kept afterwards.  A kept
    body holds no plan: a pass drops it after the run's last step, so
    nothing parked views a finished run's segment.  A body whose run
    raised is not checked in again: it may have stopped between two of
    its own bookkeeping steps (and may still hold its plan).
    """

    def __init__(self) -> None:
        self._idle: list[tuple[bytes, Any]] = []  # least recently run first
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def checkout(self, digest: bytes, image: bytes) -> Any:
        with self._lock:
            for i in range(len(self._idle) - 1, -1, -1):
                if self._idle[i][0] == digest:
                    self.hits += 1
                    return self._idle.pop(i)[1]
            self.misses += 1
        return closures.loads(image)

    def checkin(self, digest: bytes, body: Any) -> None:
        with self._lock:
            self._idle.append((digest, body))
            del self._idle[:-MAX_RESIDENT_IMAGES]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "images_resident": len(self._idle),
                "image_hits": self.hits,
                "image_misses": self.misses,
            }


class ResidentConstants:
    """The constant sets one worker daemon keeps between runs, by token.

    What the resident pack of a :class:`~repro.dist.shm.SharedStoreArena`
    is to a pool, for a daemon that shares no memory with its
    coordinator: a rank's constants (read-only arrays,
    :func:`repro.util.is_constant`) cross TCP the first time a daemon
    sees their token and stay here, ``token -> {key: array}``, every
    array read-only.  Unlike :class:`ResidentImages` a set is **shared,
    not checked out**: concurrent ranks of one daemon run on the same
    arrays, which is safe precisely because nobody can write them.

    Bounded by bytes (:data:`MAX_RESIDENT_CONSTANT_BYTES`), least
    recently used first.  A rank keeps its own reference for the run,
    so evicting a set in use only means the next run asks again — as
    does a daemon restart: the table is the only record of what this
    daemon holds, and a miss is always answered
    (:func:`repro.dist.net.engine.run_assigned`).
    """

    def __init__(self) -> None:
        #: least recently used first
        self._sets: dict[bytes, dict[str, Any]] = {}
        self._nbytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, token: bytes) -> dict[str, Any] | None:
        """The set held under ``token``, or ``None`` (a miss)."""
        with self._lock:
            held = self._sets.pop(token, None)
            if held is None:
                self.misses += 1
            else:
                self.hits += 1
                self._sets[token] = held  # most recently used last
            return held

    def put(self, token: bytes, arrays: dict[str, Any]) -> dict[str, Any]:
        """Keep ``arrays`` (just off the wire: marked read-only here)
        under ``token``; returns the resident set — the one already
        there when a concurrent rank asked for the same token and got
        in first, so a daemon holds one copy per token."""
        for arr in arrays.values():
            arr.flags.writeable = False
        with self._lock:
            held = self._sets.pop(token, None)
            if held is None:
                held = arrays
                self._nbytes += _set_nbytes(held)
            self._sets[token] = held
            while self._nbytes > MAX_RESIDENT_CONSTANT_BYTES and self._sets:
                oldest = next(iter(self._sets))
                self._nbytes -= _set_nbytes(self._sets.pop(oldest))
                self.evictions += 1
            return held

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "constants_resident": len(self._sets),
                "constant_bytes_resident": self._nbytes,
                "constant_hits": self.hits,
                "constant_misses": self.misses,
                "constant_evictions": self.evictions,
            }


def _set_nbytes(arrays: dict[str, Any]) -> int:
    return sum(arr.nbytes for arr in arrays.values())


def _unpack(payload: tuple) -> Any:
    """The value a payload carries: ``("pickle", bytes)`` and
    ``("image", digest, bytes)`` from a pool dispatch, ``("object",
    value)`` where the caller already holds the value (a daemon's
    store: resident constants plus the variables of the job frame,
    whose arrays rode raw-buffer wire frames)."""
    kind, data = payload[0], payload[-1]
    return data if kind == "object" else closures.loads(data)


def _exc_info(exc: BaseException) -> tuple[str, Any, str]:
    """A best-effort shippable form of a worker exception."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return ("pickle", closures.dumps(exc), tb)
    except Exception:
        return ("repr", f"{type(exc).__name__}: {exc}", tb)


def _wire_metrics(observer, channels) -> None:
    """Fold this rank's wire traffic into the observer's registry, under
    the metric names the channel declares (``wire_metrics``).

    Merged across workers by summing (``merge_worker_observations``),
    so the report carries run-total wire counters next to the modelled
    message counts.
    """
    for ch in channels:
        for metric, counter in ch.wire_metrics.items():
            observer.registry.counter(metric).inc(getattr(ch, counter))


def run_job(
    rank: int,
    name: str,
    nprocs: int,
    result_conn,
    body_payload: tuple[str, Any],
    plan: dict[str, tuple],
    rest_payload: tuple[str, Any],
    w_specs: list[EndpointSpec],
    r_specs: list[EndpointSpec],
    recv_timeout: float | None,
    observe: bool,
    trace: bool = False,
    images: ResidentImages | None = None,
    mapped: dict[str, ctypes.Array] | None = None,
) -> None:
    """Execute one dispatched rank: build, report ready, run body, report.

    Never raises: failures are shipped to the parent as ``("error", …)``
    frames.  Does **not** close ``result_conn`` — the calling worker
    loop closes it after each job.  ``images`` is the
    calling worker's :class:`ResidentImages`; an ``("image", digest,
    bytes)`` body is checked out of it for the run.  ``mapped`` is its
    table of kept segment mappings (:func:`repro.dist.shm.attach_store`);
    a caller whose plans name no segment — a worker daemon — passes none.
    """
    out: dict[str, SocketChannel] = {}
    inc: dict[str, SocketChannel] = {}
    # Checked out of ``images`` for this run; back in on the way out.
    resident = images is not None and body_payload[0] == "image"
    body = None
    try:
        if resident:
            body = images.checkout(*body_payload[1:])
        else:
            body = _unpack(body_payload)
        rest = _unpack(rest_payload)
        store, handles = attach_store(plan, rest, mapped)
        out = {spec.name: spec.open() for spec in w_specs}
        inc = {spec.name: spec.open() for spec in r_specs}

        observer = None
        if observe:
            from repro.obs.observer import Observer

            observer = Observer()

        executor = Executor(recv_timeout)
        if observe or trace:
            executor.log = {rank: EventLog(rank, trace)}
        ctx = ProcessContext(
            rank=rank,
            nprocs=nprocs,
            store=store,
            out_channels=out,
            in_channels=inc,
            executor=executor,
            name=name,
            observer=observer,
        )

        wire.send(result_conn, ("ready", rank))
        try:
            ret = run_rank(ctx, body)
        except BaseException:
            resident = False  # it may have stopped mid-bookkeeping
            raise

        overrides = flush_store(store, handles)
        stats = {ch.name: ch.stats() for ch in (*out.values(), *inc.values())}
        obs_payload = None
        if observer is not None:
            from repro.obs.report import worker_observation

            _wire_metrics(observer, out.values())
            obs_payload = worker_observation(observer)

        wire.send(
            result_conn,
            (
                "done",
                rank,
                {
                    "return": ret,
                    "overrides": overrides,
                    "stats": stats,
                    "obs": obs_payload,
                    "log": executor.log and executor.log[rank].payload(),
                },
            ),
        )
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        report_error(result_conn, rank, exc)
    finally:
        for ch in out.values():
            ch.close()
        for ch in inc.values():
            ch.close()
        if resident and body is not None:
            images.checkin(body_payload[1], body)


def report_error(result_conn, rank: int, exc: BaseException) -> None:
    """Ship ``exc`` to the coordinator as this rank's ``("error", …)``
    frame (shared with the worker daemon, which reports rendezvous
    failures before :func:`run_job` ever starts)."""
    try:
        wire.send(result_conn, ("error", rank, _exc_info(exc)))
    except OSError:
        pass
    except TransportError:
        pass
