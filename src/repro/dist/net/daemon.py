"""The per-host worker daemon: ``python -m repro worker-daemon``.

One long-lived :class:`WorkerDaemon` runs on each machine of a
network-spanning system (loopback daemons, spawned by the
:class:`~repro.dist.net.engine.SocketEngine` itself, exercise the same
path on one box).  It listens on a single TCP port and starts one
handler thread per accepted connection.  A connection carries a series
of sessions, each opened by a rendezvous *hello* frame
(:mod:`repro.dist.net.rendezvous`) that tags it as

* a **control** session — the coordinator follows with one
  ``("job", …)`` frame, and the handler thread runs that rank, the
  session speaking the exact ready/done/error protocol of
  :func:`repro.dist.worker.run_job` (which the daemon reuses verbatim)
  up to the rank's terminal report;
* a **data** session — a peer daemon opening one channel's stream for
  a writer rank it hosts; the handler lends it to the
  :class:`~repro.dist.net.rendezvous.ChannelBroker` until the reader
  rank claims it, and gets it back when that rank closes the channel:
  drained through the writer's goodbye and *released* (a goodbye sent
  back), or closed when anything else was left on it;
* a **stats** session — a monitor (one-shot
  :func:`~repro.dist.net.rendezvous.poll_stats` or a fleet scheduler's
  persistent heartbeat) pinging for :meth:`WorkerDaemon.stats`
  snapshots, for the rest of the connection;
* a **shutdown** request — drain in-flight ranks, then stop.

After a control or data session the handler reads the connection's
next hello, so a warm run accepts no connection and starts no thread; a
hello of the wrong shape is counted (``bad_hellos``) and closes its
connection.  This daemon's own writer ranks dial through a
:class:`~repro.dist.net.rendezvous.StreamPool` of its own, so their
data connections outlive runs too.

Shutdown is *drain-ordered*: :meth:`WorkerDaemon.stop` first refuses
new control hellos (clean goodbye, so the coordinator sees an orderly
close rather than a crash), keeps the listener open so in-flight jobs'
late channel dials still land, waits (bounded) for active ranks to
finish, and only then closes the listener and hangs up every idle
connection — a handler waiting for a hello is not an active rank.  A
daemon stopped while serving therefore never turns a healthy job's
stream into a spurious ``TransportAbortError``.

Each assigned rank runs on its control connection's handler thread.
Ranks on *different* daemons (the interesting case: different hosts)
run genuinely in parallel; ranks sharing a daemon are GIL-bound like
the threaded engine — correctness is engine-independent either way by
Theorem 1, which is exactly what the equivalence tests assert.

A daemon shares no memory with its coordinator, so what a pool gets
from its arena a daemon keeps itself: each rank's *constants* (read-only
store arrays) stay in a :class:`~repro.dist.worker.ResidentConstants`
table under the token the job frame names, shared by every rank that
names it, least recently used sets dropped beyond
:data:`~repro.dist.worker.MAX_RESIDENT_CONSTANT_BYTES`.  The job frame
carries only the variables; a daemon that does not hold the token says
``("need", rank)`` before ``("ready", rank)`` and is sent the arrays.
The daemon's own table is the only authority — restarted, evicted or
newly placed, it simply asks — and a hit adds no frame.

Job setup then resolves each rank's channel endpoints: writer specs dial the
reader's daemon (retry + exponential backoff), reader specs claim from
the broker — both bounded by the job's handshake timeout, so a peer
daemon that never appears fails the rank with a rendezvous error frame
instead of hanging the run.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any

import numpy as np

from repro.dist import wire
from repro.dist.net import rendezvous
from repro.dist.net.feeder import running_feeder_threads
from repro.dist.net.frames import FrameStream
from repro.dist.shm import BY_VALUE_CONSTANT
from repro.dist.worker import (
    ResidentConstants,
    ResidentImages,
    report_error,
    run_job,
)
from repro.errors import MalformedFrameError, RendezvousError, TransportError

__all__ = ["WorkerDaemon", "daemon_process_main", "run_daemon_cli"]

#: Seconds :meth:`WorkerDaemon.stop` waits for in-flight ranks.
DRAIN_TIMEOUT = 10.0

#: The types of each hello's fields after its kind.
_HELLO_FIELDS = {
    rendezvous.HELLO_CONTROL: (),
    rendezvous.HELLO_DATA: (str, str),
    rendezvous.HELLO_STATS: (),
    rendezvous.HELLO_SHUTDOWN: (),
}

#: The fields :meth:`WorkerDaemon._serve_rank` reads off every job frame.
_JOB_KEYS = frozenset(
    (
        "job_id", "rank", "name", "nprocs", "body", "variables", "w_specs",
        "r_specs", "recv_timeout", "observe", "trace",
    )
)


def _well_formed(hello: Any) -> bool:
    """A tuple naming a known kind, with that kind's fields."""
    if not (isinstance(hello, tuple) and hello and isinstance(hello[0], str)):
        return False
    fields = _HELLO_FIELDS.get(hello[0])
    return (
        fields is not None
        and len(hello) == 1 + len(fields)
        and all(map(isinstance, hello[1:], fields))
    )


class WorkerDaemon:
    """One host's worker daemon (see module docstring).

    ``port=0`` binds an ephemeral port; :attr:`address` holds the real
    one after :meth:`start`.  ``handshake_timeout`` bounds every hello
    read and channel rendezvous performed by this daemon.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        handshake_timeout: float = 30.0,
    ):
        self._host = host
        self._port = port
        self.handshake_timeout = handshake_timeout
        self.address: rendezvous.Address | None = None
        self._listener: socket.socket | None = None
        self._broker = rendezvous.ChannelBroker()
        self._stopped = threading.Event()
        self._acceptor: threading.Thread | None = None
        self._t_start = time.monotonic()
        #: Fleet-telemetry event counters; read a snapshot via
        #: :meth:`stats`.  Bumped under one lock so concurrent
        #: connection-handler threads never lose increments.
        self._counters: dict[str, int] = {
            "accepted_conns": 0,
            "control_conns": 0,
            "data_conns": 0,
            "stats_conns": 0,
            "jobs_run": 0,
            "rendezvous_failures": 0,
            "shutdown_requests": 0,
            "refused_conns": 0,
            "bad_hellos": 0,
        }
        self._counters_lock = threading.Lock()
        #: Bodies this daemon has unpickled, shared by its rank threads
        #: (each run checks its body out exclusively).
        self._images = ResidentImages()
        #: Constant sets this daemon has been sent, shared by its rank
        #: threads (nobody can write them, so nothing is checked out).
        self._constants = ResidentConstants()
        # Drain state: ranks currently executing, guarded by the same
        # condition stop() waits on.  _draining flips before _stopped
        # so new control hellos are refused while in-flight ranks (and
        # the data dials they still need) run to completion.
        self._active = 0
        self._drain_cv = threading.Condition()
        self._draining = False
        #: Connections whose handler waits for a hello; stop() hangs
        #: them up.  Guarded by _idle_lock, as is setting _stopped.
        self._idle: set[FrameStream] = set()
        self._idle_lock = threading.Lock()
        #: This daemon's writer ranks' data connections between runs.
        self._outbound = rendezvous.StreamPool()

    def _count(self, key: str) -> None:
        with self._counters_lock:
            self._counters[key] += 1

    @property
    def jobs_run(self) -> int:
        """Ranks executed to completion of setup (stats/tests)."""
        return self._counters["jobs_run"]

    def stats(self) -> dict[str, Any]:
        """A consistent snapshot of this daemon's event counters plus
        live load (``ranks_active``; ``feeder_threads``, the channels
        whose sends are queued behind back-pressure right now),
        resident program images (``images_resident`` idle bodies,
        ``image_hits`` / ``image_misses`` per rank run), resident
        constants (``constants_resident`` sets of
        ``constant_bytes_resident`` bytes; ``constant_hits`` /
        ``constant_misses`` per rank run that named a token — a miss is
        a set that crossed the wire; ``constant_evictions``) and identity
        (``pid``, ``uptime_s``) — the dict a fleet scheduler's placement
        policy and heartbeat monitor consume, locally or over a
        ``stats`` connection
        (:func:`~repro.dist.net.rendezvous.poll_stats`)."""
        with self._counters_lock:
            out: dict[str, Any] = dict(self._counters)
        with self._drain_cv:
            out["ranks_active"] = self._active
            out["draining"] = self._draining
        out["feeder_threads"] = running_feeder_threads()
        out.update(self._images.stats())
        out.update(self._constants.stats())
        out["pid"] = os.getpid()
        out["uptime_s"] = time.monotonic() - self._t_start
        return out

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> rendezvous.Address:
        """Bind, listen, and start the acceptor thread."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self.address = (self._host, listener.getsockname()[1])
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="daemon-accept", daemon=True
        )
        self._acceptor.start()
        return self.address

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop`."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Stop serving once in-flight ranks finish.

        Draining refuses *new* control hellos immediately (goodbye,
        then close — an orderly refusal, not a crash) but keeps the
        listener open so data connections for jobs already running can
        still rendezvous, then waits up to :data:`DRAIN_TIMEOUT` seconds
        for active rank threads before closing the listener.  Idle
        connections are hung up without waiting for them, and every
        parked or unclaimed data connection is closed.
        """
        with self._drain_cv:
            self._draining = True
            deadline = time.monotonic() + DRAIN_TIMEOUT
            while self._active:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._drain_cv.wait(min(remaining, 0.25))
        with self._idle_lock:
            self._stopped.set()
            idle = list(self._idle)
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes the acceptor
            except OSError:
                pass
            listener.close()
        for stream in idle:
            stream.shutdown()
        self._broker.close()
        self._outbound.close()

    def __enter__(self) -> "WorkerDaemon":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept/dispatch ----------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener  # stop() drops the attribute
        while not self._stopped.is_set():
            try:
                sock, _peer = listener.accept()
            except OSError:
                break  # listener closed: shutting down
            self._count("accepted_conns")
            threading.Thread(
                target=self._handle, args=(sock,), daemon=True
            ).start()

    def _handle(self, sock: socket.socket) -> None:
        """Serve one connection's sessions, each routed by its hello,
        until one leaves the connection unusable, the peer hangs up or
        the daemon stops.  A new connection must say hello within the
        handshake timeout; a reused one may wait for ever."""
        stream = FrameStream(sock)
        timeout = self.handshake_timeout
        try:
            while (hello := self._next_hello(stream, timeout)) is not None:
                if not self._route(stream, hello):
                    break
                timeout = None
        finally:
            stream.close()

    def _next_hello(
        self, stream: FrameStream, timeout: float | None
    ) -> tuple | None:
        """The connection's next well-formed hello, or ``None`` once it
        is over: hung up, idle past ``timeout``, or the daemon stopped.
        A frame that is not a hello counts as ``bad_hellos``."""
        with self._idle_lock:
            if self._stopped.is_set():
                return None
            self._idle.add(stream)
        try:
            if not stream.poll(timeout):
                return None
            hello = wire.recv(stream)
        except MalformedFrameError:
            hello = None
        except (EOFError, TransportError, OSError):
            return None
        finally:
            with self._idle_lock:
                self._idle.discard(stream)
        if _well_formed(hello):
            return hello
        self._count("bad_hellos")
        return None

    def _route(self, stream: FrameStream, hello: tuple) -> bool:
        """Serve one session; True when the connection can carry the
        next."""
        kind = hello[0]
        if kind == rendezvous.HELLO_DATA:
            self._count("data_conns")
            return self._lend(stream, (hello[1], hello[2]))
        if kind == rendezvous.HELLO_CONTROL:
            # Admission and the active count move atomically with the
            # draining flag, so stop() can never observe "no active
            # ranks" while a just-admitted rank is still starting up.
            with self._drain_cv:
                admitted = not self._draining
                if admitted:
                    self._active += 1
            served = False
            try:
                if admitted:
                    self._count("control_conns")
                    served = self._serve_rank(stream)
                else:
                    self._count("refused_conns")
            finally:
                if admitted:
                    with self._drain_cv:
                        self._active -= 1
                        self._drain_cv.notify_all()
                if not served:
                    # A goodbye first makes the coordinator's EOF
                    # *clean*: bare EOF on a control stream means this
                    # daemon died.
                    try:
                        stream.send_goodbye()
                    except (OSError, TransportError):
                        pass
            return served
        if kind == rendezvous.HELLO_STATS:
            self._count("stats_conns")
            self._serve_stats(stream)
            return False
        self._count("shutdown_requests")
        stream.close()
        self.stop()
        return False

    def _lend(self, stream: FrameStream, key: tuple) -> bool:
        """One data session: offer the stream to the reader rank and
        wait until it comes back — True when it came back released.
        An offer nobody claims within the handshake timeout is taken
        back and the connection closed."""
        back = threading.Event()

        def hand_back(_stream: FrameStream) -> None:
            if not stream.closed and not self._release(stream):
                stream.close()
            back.set()

        stream.lender = hand_back
        self._broker.offer(key, stream)
        if not back.wait(self.handshake_timeout) and self._broker.withdraw(
            key, stream
        ):
            stream.close()
        back.wait()
        return not stream.closed

    def _release(self, stream: FrameStream) -> bool:
        """Run by the reader rank as it closes its channel: read the
        writer's goodbye, unless the rank already did, and send the
        release.  False — the stream is not reused — when a frame comes
        first (a value the reader left unread), the stream ends or
        resets, or no goodbye comes within the handshake timeout."""
        try:
            if not stream.poll(self.handshake_timeout):
                return False
            stream.recv_len()
            return False
        except EOFError:
            pass
        except (TransportError, OSError):
            return False
        try:
            stream.send_goodbye()
        except (TransportError, OSError):
            return False
        stream.goodbye_read = False  # the next hello opens a new session
        return True

    def _serve_stats(self, stream: FrameStream) -> None:
        """One stats connection: answer each ``("ping", seq)`` with
        ``("pong", seq, stats)`` until the peer hangs up or we stop."""
        try:
            while not self._stopped.is_set():
                if not stream.poll(0.25):
                    continue
                msg = wire.recv(stream)
                if msg[0] != "ping":
                    break
                wire.send(stream, ("pong", msg[1], self.stats()))
        except (EOFError, TransportError, OSError):
            pass
        finally:
            try:
                stream.send_goodbye()
            except (OSError, TransportError):
                pass
            stream.close()

    # -- rank execution -----------------------------------------------------

    def _serve_rank(self, stream: FrameStream) -> bool:
        """One control session: receive the job, run the rank.  True
        when the session ended with the rank's terminal report, so the
        connection can carry the next."""
        try:
            if not stream.poll(self.handshake_timeout):
                return False
            msg = wire.recv(stream)
        except (EOFError, TransportError, OSError):
            return False
        if not (
            isinstance(msg, tuple)
            and len(msg) == 2
            and msg[0] == "job"
            and isinstance(msg[1], dict)
            and _JOB_KEYS <= msg[1].keys()
        ):
            return False
        job = msg[1]
        timeout = job.get("handshake_timeout") or self.handshake_timeout
        try:
            constants = self._rank_constants(stream, job, timeout)
        except (EOFError, TransportError, OSError) as exc:
            report_error(stream, job["rank"], exc)
            return False
        w_specs: list = []
        r_specs: list = []
        try:
            # Writers dial out; readers claim accepted streams.  Either
            # side of a pair may arrive first — dials retry with
            # backoff, claims block on the broker — so rank dispatch
            # order never matters.
            for spec in job["w_specs"]:
                spec.conn = rendezvous.dial_channel(
                    tuple(spec.peer),
                    job["job_id"],
                    spec.name,
                    timeout,
                    self._outbound,
                )
                w_specs.append(spec)
            for spec in job["r_specs"]:
                spec.conn = self._broker.claim(
                    (job["job_id"], spec.name), timeout
                )
                r_specs.append(spec)
        except (RendezvousError, OSError) as exc:
            self._count("rendezvous_failures")
            report_error(stream, job["rank"], exc)
            self._broker.drop_job(job["job_id"])
            for spec in (*w_specs, *r_specs):
                spec.conn.close()
            return False
        self._count("jobs_run")
        run_job(
            job["rank"],
            job["name"],
            job["nprocs"],
            stream,
            job["body"],
            # No segment to map: the plan only names the constants, so
            # that run_job leaves them out of its overrides.
            dict.fromkeys(constants, BY_VALUE_CONSTANT),
            ("object", {**constants, **job["variables"]}),
            w_specs,
            r_specs,
            job["recv_timeout"],
            job["observe"],
            job["trace"],
            self._images,
        )
        return True

    def _rank_constants(
        self, stream: FrameStream, job: dict[str, Any], timeout: float
    ) -> dict[str, Any]:
        """The constants of ``job``'s rank: the resident set its token
        names, asked for over ``stream`` when this daemon does not hold
        it (``("need", rank)`` out, ``("constants", token, arrays)``
        back).  Any other answer, or none within ``timeout``, is a
        :class:`~repro.errors.TransportError`."""
        token = job.get("constants")
        if token is None:
            return {}
        held = self._constants.get(token)
        if held is not None:
            return held
        rank = job["rank"]
        wire.send(stream, ("need", rank))
        if not stream.poll(timeout):
            raise TransportError(
                f"rank {rank}: no constants from the coordinator within "
                f"{timeout:.1f}s of asking"
            )
        reply = wire.recv(stream)
        kind, got, arrays = (
            reply
            if isinstance(reply, tuple) and len(reply) == 3
            else (None, None, None)
        )
        if (
            kind != "constants"
            or got != token
            or not isinstance(arrays, dict)
            or not all(isinstance(v, np.ndarray) for v in arrays.values())
        ):
            raise TransportError(
                f"rank {rank}: asked the coordinator for its constants and "
                "was sent something else (stream out of sync)"
            )
        return self._constants.put(token, arrays)


def daemon_process_main(host: str, port: int, ready_conn) -> None:
    """Target for loopback daemon subprocesses: report the bound
    address over ``ready_conn``, then serve until killed."""
    daemon = WorkerDaemon(host, port)
    addr = daemon.start()
    try:
        ready_conn.send(addr)
        ready_conn.close()
    except OSError:
        pass
    daemon.serve_forever()


def run_daemon_cli(args, out=print) -> int:
    """``python -m repro worker-daemon``: run one daemon in the
    foreground until interrupted (or a shutdown hello arrives).
    ``args`` is that subcommand's parsed namespace — the options and
    their help are defined in :func:`repro.cli.main`'s parser."""
    stats_interval = args.stats_interval
    daemon = WorkerDaemon(
        args.host, args.port, handshake_timeout=args.handshake_timeout
    )
    addr = daemon.start()
    out(f"worker daemon listening on {addr[0]}:{addr[1]}")
    import sys

    sys.stdout.flush()  # the CI smoke job greps this line while we serve
    if stats_interval > 0:
        import json

        def _stats_ticker() -> None:
            while not daemon._stopped.wait(stats_interval):
                out("stats " + json.dumps(daemon.stats(), sort_keys=True))
                sys.stdout.flush()

        threading.Thread(
            target=_stats_ticker, name="daemon-stats", daemon=True
        ).start()
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        daemon.stop()
    out("worker daemon stopped")
    return 0
