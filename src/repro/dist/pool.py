"""The worker pool: the one launcher of rank processes.

Every process-backed run on this host — a pooled engine's, an
un-pooled engine's (a pool scoped to that one run), a served job's —
puts its ranks on :class:`WorkerPool` workers.  A worker is a
long-lived process parked on a *control socket*;
:func:`repro.dist.engine.run_on_pool` borrows one per rank
(:meth:`WorkerPool.checkout`), ships each its job — body, store plan,
channel endpoints, a fresh result stream — down that socket
(:meth:`WorkerPool.dispatch`), and the worker executes
:func:`repro.dist.worker.run_job`, then parks again.  Keeping the pool
across runs amortizes process boot (interpreter, imports) and the
workers' shared-memory mappings — a worker maps each segment once and
keeps it, so a warm run maps nothing — and nothing else: the
result-stream protocol (ready / done / error), the timing split and
crash reaping do not depend on how long the workers live.

Mechanics worth noting:

* **One control message per rank.**  A parked worker's control channel
  is an ``AF_UNIX`` socketpair.  :meth:`WorkerPool.dispatch` pickles
  the job with every embedded socket (the rank's channel ends and its
  result stream, each one end of a socketpair) replaced by an index,
  writes it as one length-prefixed frame, and the descriptors
  themselves ride the same ``sendmsg`` as ``SCM_RIGHTS`` ancillary
  data — the kernel installs duplicates in the worker as it reads the
  frame, and the worker wraps each in a
  :class:`~repro.dist.net.frames.FrameStream`.  No listener, helper
  thread, connect or authentication round trip per descriptor, under
  ``fork`` and ``spawn`` alike; the parent closes its copies right
  after dispatch and EOF semantics stay exact.  Descriptors still in
  flight when a worker dies are closed with its socket, and a worker
  found dead at dispatch fails that rank like a crash at any later
  point.
* **Bodies by image.**  A worker is forked (or spawned) before it knows
  what it will run, so bodies always cross by value: every job carries
  its rank's once-per-``System`` image
  (:func:`repro.dist.closures.body_payloads`), and the worker keeps the
  bodies it has unpickled resident by digest
  (:class:`repro.dist.worker.ResidentImages`) — a resubmitted system
  re-runs the closure it already has.  A respawned worker starts with
  none and unpickles each image it is sent once more.
* **Exclusive borrowing.**  :meth:`WorkerPool.checkout` removes slots
  from the parked list until :meth:`WorkerPool.checkin`, so any number
  of engines and servers may share one pool from any number of threads.
  Checkin re-parks at the *front*, in rank order: a serial client gets
  the same workers for the same ranks next time, whatever ran between.
* **Crash containment.**  A worker that dies mid-job is detected by the
  collection loop via its process sentinel; :meth:`WorkerPool.checkin`
  discards the dead slot and the next checkout spawns a replacement.  A
  body that merely *raises* reports an error frame and parks again —
  the worker survives.
* **Segment recycling.**  The pool owns a persistent
  :class:`~repro.dist.shm.SharedStoreArena` (guarded by
  :attr:`WorkerPool.arena_lock` — the arena itself is not thread-safe);
  a finished run lends its run packs to its result, and they are
  recycled once the result's arrays die (a failed run's once every rank
  it dispatched is terminal), so
  same-shape grids reuse them, while the resident packs
  holding a system's constants stay with the arena for as long as that
  system lives — every later or concurrent run of it maps the same
  ones.  :meth:`shutdown` unlinks everything — the pool holds the
  only parent-side ownership, and the no-leak tests assert emptiness
  after; a pack still lent then stays mapped until its result dies.
"""

from __future__ import annotations

import array
import ctypes
import io
import multiprocessing
import pickle
import socket
import struct
import threading
from dataclasses import dataclass
from typing import Any

from repro.dist import closures
from repro.dist.net.frames import FrameStream
from repro.dist.shm import SharedStoreArena
from repro.dist.worker import ResidentImages, run_job
from repro.errors import wrap_process_failure

__all__ = ["WorkerCrashError", "WorkerPool", "worker_loop"]

#: Control frame header: payload bytes, descriptors that come with it.
_HEADER = struct.Struct("!II")
#: ``SCM_MAX_FD``: the kernel refuses more descriptors on one message.
_MAX_FDS = 253


class _FdPickler(pickle.Pickler):
    """Pickles a control message, replacing each socket in it by its
    index into :attr:`fds`."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.fds: list[int] = []

    def persistent_id(self, obj):
        if isinstance(obj, socket.socket):
            self.fds.append(obj.fileno())
            return len(self.fds) - 1
        return None


class _FdUnpickler(pickle.Unpickler):
    """The receiving half: an index becomes a
    :class:`~repro.dist.net.frames.FrameStream` over a socket that owns
    the descriptor received in that position."""

    def __init__(self, file, fds: list[int]):
        super().__init__(file)
        self._fds = fds

    def persistent_load(self, index):
        return FrameStream(socket.socket(fileno=self._fds[index]))


def _rights(fds: list[int]) -> list[tuple]:
    return [(socket.SOL_SOCKET, socket.SCM_RIGHTS, array.array("i", fds))]


def _send_frame(sock: socket.socket, msg: tuple) -> None:
    """Write ``msg`` and the descriptors of every socket in it.

    Header, pickle and the first :data:`_MAX_FDS` descriptors are one
    ``sendmsg``; each further chunk of descriptors rides one pad byte
    after the pickle.  The sender keeps its own descriptors.
    """
    buffer = io.BytesIO()
    pickler = _FdPickler(buffer)
    pickler.dump(msg)
    fds = pickler.fds
    with buffer.getbuffer() as payload:
        header = _HEADER.pack(len(payload), len(fds))
        sent = sock.sendmsg(
            [header, payload], _rights(fds[:_MAX_FDS]) if fds else []
        )
        if sent < len(header) + len(payload):  # a signal cut it short
            sock.sendall((header + payload)[sent:])
    for i in range(_MAX_FDS, len(fds), _MAX_FDS):
        sock.sendmsg([b"\0"], _rights(fds[i : i + _MAX_FDS]))


def _recv_frame(sock: socket.socket) -> tuple:
    """Read one :func:`_send_frame` message; raises ``EOFError`` when
    the peer is gone."""
    fds: list[int] = []

    def read(n: int) -> bytes:
        chunks = []
        while n:
            # Descriptors arrive with the first byte of the write that
            # carried them, so every read must be ready to take them.
            data, new, _flags, _addr = socket.recv_fds(sock, n, _MAX_FDS)
            if not data:
                raise EOFError
            fds.extend(new)
            chunks.append(data)
            n -= len(data)
        return b"".join(chunks)

    length, nfds = _HEADER.unpack(read(_HEADER.size))
    payload = read(length)
    read(max(0, nfds - 1) // _MAX_FDS)  # one pad byte per further chunk
    if len(fds) != nfds:
        raise OSError(f"control frame lost {nfds - len(fds)} descriptors")
    return _FdUnpickler(io.BytesIO(payload), fds).load()


class WorkerCrashError(RuntimeError):
    """A worker process died without reporting a result.

    Wrapped in :class:`~repro.errors.ProcessFailedError` like any other
    body failure; ``exitcode`` is the process's exit code (negative =
    killed by that signal number).
    """

    def __init__(self, rank: int, exitcode: int | None):
        self.rank = rank
        self.exitcode = exitcode
        super().__init__(
            f"worker process for rank {rank} died without reporting "
            f"(exitcode {exitcode})"
        )


def worker_loop(slot: int, ctrl: socket.socket) -> None:
    """Long-lived worker loop: park on the control socket, run jobs."""
    images = ResidentImages()
    # Every segment this worker has mapped, by name, kept for its whole
    # life (repro.dist.shm.attach_store).  No bound: it can only name
    # segments of the pool's arena, which unlinks none of them until
    # pool shutdown — and shutdown stops the workers first.
    mapped: dict[str, ctypes.Array] = {}
    try:
        while True:
            try:
                msg = _recv_frame(ctrl)
            except (EOFError, OSError):
                break  # pool parent went away: exit quietly
            if msg[0] == "stop":
                break
            if msg[0] != "job":  # unknown frame: ignore, keep parking
                continue
            job = msg[1]
            try:
                run_job(**job, images=images, mapped=mapped)
            finally:
                # Streams of channels the job never opened close too
                # (bare: their readers learn this rank failed).
                specs = (*job["w_specs"], *job["r_specs"])
                for conn in (job["result_conn"], *(s.conn for s in specs)):
                    conn.close()
    finally:
        ctrl.close()


@dataclass
class _Slot:
    proc: Any
    sock: socket.socket  # parent end of the control socketpair


def _send_stop(slot: _Slot) -> None:
    try:
        _send_frame(slot.sock, ("stop",))
    except OSError:
        pass  # already gone


class WorkerPool:
    """A reusable set of parked worker processes plus their arena.

    Usable as a context manager; :meth:`shutdown` is idempotent.  A
    run borrows its slots with :meth:`checkout` / :meth:`checkin`
    (assigned to ranks by position); consecutive and concurrent runs —
    of different systems and sizes — reuse the pool, which grows on
    demand and replaces any worker that died.  Both calls are safe from
    multiple threads and concurrently with :meth:`shutdown`: every
    mutation of the slot lists happens under one lock, borrowed slots
    are tracked so a shutdown racing a job terminates them too (a
    parked worker gets a polite ``stop``; a borrowed one is mid-job and
    is terminated), and a checkin after shutdown stops the returned
    workers instead of re-parking them.
    """

    def __init__(self, start_method: str = "fork"):
        if start_method not in ("spawn", "fork"):
            raise ValueError(f"unsupported start method {start_method!r}")
        self.start_method = start_method
        self.ctx = multiprocessing.get_context(start_method)
        self.arena = SharedStoreArena()
        self.arena_lock = threading.Lock()  # the arena is not thread-safe
        self._slots: list[_Slot] = []
        self._lent: list[_Slot] = []
        self._lock = threading.RLock()
        self._closed = False
        self.spawned = 0  # total workers ever started (tests/bench)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots) + len(self._lent)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self) -> _Slot:
        parent, child = socket.socketpair()
        proc = self.ctx.Process(
            target=worker_loop,
            name=f"repro-pool-{self.spawned}",
            args=(self.spawned, child),
            daemon=True,
        )
        proc.start()
        child.close()
        self.spawned += 1
        return _Slot(proc, parent)

    @staticmethod
    def _discard(slot: _Slot) -> None:
        slot.proc.join(timeout=1.0)
        if slot.proc.is_alive():
            slot.proc.terminate()
            slot.proc.join(timeout=1.0)
        slot.sock.close()

    def reap(self) -> int:
        """Drop dead *parked* workers; returns how many were discarded.

        Borrowed slots are never reaped here — the job that borrowed
        them detects the crash (process sentinel) and returns them via
        :meth:`checkin`, which discards the dead.
        """
        with self._lock:
            dead = [s for s in self._slots if not s.proc.is_alive()]
            self._slots = [s for s in self._slots if s.proc.is_alive()]
        for slot in dead:
            self._discard(slot)
        return len(dead)

    def _grow(self, n: int) -> None:
        """At least ``n`` live parked workers (under :attr:`_lock`)."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        self.reap()
        while len(self._slots) < n:
            self._slots.append(self._spawn())

    def ensure(self, n: int) -> list[_Slot]:
        """Pre-spawn: at least ``n`` live parked workers; returns the
        first ``n`` (still parked — running on them takes a
        :meth:`checkout`).  A server calls this while its process is
        still single-threaded, so no run ever forks from a live thread
        pool."""
        with self._lock:
            self._grow(n)
            return self._slots[:n]

    def checkout(self, n: int) -> list[_Slot]:
        """Borrow ``n`` live workers exclusively, one per rank.

        The returned slots are removed from the parked list until
        :meth:`checkin`; concurrent checkouts never share a slot.
        """
        with self._lock:
            self._grow(n)
            taken = self._slots[:n]
            del self._slots[:n]
            self._lent.extend(taken)
            return taken

    def checkin(self, slots: list[_Slot]) -> None:
        """Return borrowed slots: live ones park again — at the front,
        in the order given, so the next checkout hands the same workers
        to the same ranks and finds their images resident — dead ones
        are discarded.  After :meth:`shutdown` the returned workers are
        stopped instead — never re-parked on a closed pool."""
        with self._lock:
            for slot in slots:
                if slot in self._lent:
                    self._lent.remove(slot)
            if self._closed:
                doomed, parked = list(slots), []
            else:
                doomed = [s for s in slots if not s.proc.is_alive()]
                parked = [s for s in slots if s.proc.is_alive()]
                self._slots[:0] = parked
        for slot in doomed:
            _send_stop(slot)
            self._discard(slot)

    def dispatch(
        self,
        slot: _Slot,
        system,
        rank: int,
        result_conn,
        *,
        body: tuple,
        plan: dict[str, tuple],
        rest: dict[str, Any],
        w_specs: list,
        r_specs: list,
        recv_timeout: float | None,
        observe: bool,
        trace_causal: bool,
    ) -> None:
        """Ship ``rank``'s job for one run of ``system`` to the parked
        worker in ``slot``: the keyword arguments of
        :func:`repro.dist.worker.run_job` as one control frame.

        A worker that died while parked fails the write; that surfaces as
        the rank's :class:`~repro.errors.ProcessFailedError`, like a crash
        at any later point.  Ranks already dispatched unwind when the
        caller closes their result streams.
        """
        job = {
            "rank": rank,
            "name": system.processes[rank].name,
            "nprocs": system.nprocs,
            "result_conn": result_conn,
            "body_payload": body,
            "plan": plan,
            "rest_payload": ("pickle", closures.dumps(rest)),
            "w_specs": w_specs,
            "r_specs": r_specs,
            "recv_timeout": recv_timeout,
            "observe": observe,
            "trace_causal": trace_causal,
        }
        try:
            _send_frame(slot.sock, ("job", job))
        except OSError as exc:
            slot.proc.join(timeout=1.0)
            raise wrap_process_failure(
                rank, WorkerCrashError(rank, slot.proc.exitcode)
            ) from exc

    def shutdown(self) -> None:
        """Stop every worker and unlink every shared segment.

        Idempotent and safe while jobs are in flight: parked workers
        get a ``stop`` frame; borrowed (mid-job) workers are terminated
        outright — their parent-side collector sees the sentinel and
        fails that job, exactly like a crash.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            parked = list(self._slots)
            lent = list(self._lent)
            self._slots.clear()
            self._lent.clear()
        for slot in parked:
            _send_stop(slot)
        for slot in lent:
            slot.proc.terminate()
        for slot in parked + lent:
            slot.proc.join(timeout=5.0)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=5.0)
            slot.sock.close()
        self.arena.cleanup()
