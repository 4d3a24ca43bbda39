"""Rank rendezvous: who runs where, and how channel sockets find peers.

A network-spanning run involves three kinds of parties:

* the **coordinator** (the :class:`~repro.dist.net.engine.SocketEngine`
  in the launching process), which assigns ranks to daemons and opens
  one *control* connection per rank;
* one **worker daemon** per host (:mod:`repro.dist.net.daemon`), which
  listens on a single TCP port for both control and data connections;
* the per-rank **channel dials**: for every channel, the writer rank's
  daemon connects directly to the reader rank's daemon — data never
  relays through the coordinator.

The handshake is one *hello* frame, sent first on every new connection
to a daemon, tagging what the connection is::

    ("control",)                      coordinator -> daemon, one per rank;
                                      the job frame follows, then the
                                      connection becomes the rank's
                                      result stream (ready/done/error)
    ("data", job_id, channel_name)    writer daemon -> reader daemon;
                                      the connection becomes the
                                      channel's byte stream
    ("stats",)                        monitor -> daemon: the connection
                                      becomes a ping/pong telemetry
                                      stream (each ("ping", seq) frame
                                      is answered with ("pong", seq,
                                      stats-dict)) — one-shot pollers
                                      send a single ping
                                      (:func:`poll_stats`), fleet
                                      schedulers keep it open as the
                                      heartbeat wire
    ("shutdown",)                     coordinator -> daemon: stop serving

Ordering is the interesting part: the writer's dial can land before the
reader's job frame has even arrived at its daemon (the coordinator
dispatches ranks one at a time).  Two mechanisms absorb every race:

* :func:`connect_retry` retries refused/unreachable dials with
  exponential backoff until the handshake deadline — so a daemon that
  is still booting, or briefly behind a full accept queue, costs
  latency, not correctness;
* the reader side's :class:`ChannelBroker` is a rendezvous table keyed
  by ``(job_id, channel_name)``: accepted data connections are *offered*
  as their hello arrives (buffered if the claimant is not ready), and
  the rank's setup *claims* them, blocking up to the handshake timeout.
  Either party may be first; ``job_id`` keeps streams of back-to-back
  runs from cross-matching.

A handshake that cannot complete inside the timeout raises
:class:`~repro.errors.RendezvousTimeoutError` — never a silent hang.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.dist.net.frames import FrameStream
from repro.errors import (
    RendezvousError,
    RendezvousTimeoutError,
    TransportError,
)

__all__ = [
    "Address",
    "parse_hosts",
    "assign_ranks",
    "connect_retry",
    "dial_channel",
    "dial_control",
    "dial_stats",
    "poll_stats",
    "request_shutdown",
    "ChannelBroker",
    "HELLO_CONTROL",
    "HELLO_DATA",
    "HELLO_STATS",
    "HELLO_SHUTDOWN",
]

Address = tuple  # (host: str, port: int)

HELLO_CONTROL = "control"
HELLO_DATA = "data"
HELLO_STATS = "stats"
HELLO_SHUTDOWN = "shutdown"

#: First and largest retry sleep, seconds (exponential: 10 ms, 20, 40,
#: ... capped at _BACKOFF_MAX, until the deadline).
_BACKOFF_FIRST = 0.01
_BACKOFF_MAX = 0.5


def parse_hosts(spec: str) -> list[Address]:
    """``"hostA:9001,hostB:9002"`` → ``[("hostA", 9001), ...]``."""
    addrs: list[Address] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, port = part.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"bad daemon address {part!r} (expected host:port)"
            )
        if not 1 <= int(port) <= 65535:
            raise ValueError(
                f"bad daemon address {part!r} (port outside 1..65535)"
            )
        addrs.append((host, int(port)))
    if not addrs:
        raise ValueError(f"no daemon addresses in {spec!r}")
    return addrs


def assign_ranks(nprocs: int, daemons: list[Address]) -> list[Address]:
    """Rank → daemon address, round-robin — rank ``r`` lives on daemon
    ``r % len(daemons)``, so equal-sized systems land identically run
    to run and every daemon carries ⌈nprocs/len⌉ ranks at most."""
    if not daemons:
        raise RendezvousError("no worker daemons to assign ranks to")
    return [daemons[r % len(daemons)] for r in range(nprocs)]


def connect_retry(
    addr: Address, timeout: float, what: str = "daemon"
) -> socket.socket:
    """TCP-connect with exponential backoff until ``timeout`` expires.

    Refused and unreachable errors are retried (the listener may still
    be booting); anything else propagates immediately.
    """
    deadline = time.monotonic() + timeout
    delay = _BACKOFF_FIRST
    last: Exception | None = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RendezvousTimeoutError(
                f"could not connect to {what} at {addr[0]}:{addr[1]} "
                f"within {timeout:.1f}s (last error: {last})"
            )
        try:
            return socket.create_connection(addr, timeout=min(remaining, 5.0))
        except (ConnectionRefusedError, ConnectionResetError, OSError) as exc:
            last = exc
        time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
        delay = min(delay * 2, _BACKOFF_MAX)


def _hello(addr: Address, payload: tuple, timeout: float, what: str) -> FrameStream:
    from repro.dist import wire

    sock = connect_retry(addr, timeout, what)
    stream = FrameStream(sock)
    try:
        wire.send(stream, payload)
    except (TransportError, OSError) as exc:
        stream.close()
        raise RendezvousError(
            f"handshake with {what} at {addr[0]}:{addr[1]} failed: {exc}"
        ) from exc
    return stream


def dial_control(addr: Address, timeout: float) -> FrameStream:
    """Coordinator side: open one rank's control connection."""
    return _hello(addr, (HELLO_CONTROL,), timeout, "worker daemon")


def dial_channel(
    addr: Address, job_id: str, channel: str, timeout: float
) -> FrameStream:
    """Writer side: connect a channel's stream to the reader's daemon."""
    return _hello(
        addr,
        (HELLO_DATA, job_id, channel),
        timeout,
        f"reader daemon for channel {channel!r}",
    )


def dial_stats(addr: Address, timeout: float) -> FrameStream:
    """Monitor side: open a persistent ping/pong telemetry stream.

    The returned stream speaks the stats protocol: send ``("ping",
    seq)`` frames, receive ``("pong", seq, stats)`` replies.  Fleet
    heartbeats hold one of these open per daemon.
    """
    return _hello(addr, (HELLO_STATS,), timeout, "worker daemon")


def poll_stats(addr: Address, timeout: float = 5.0) -> dict:
    """One-shot remote :meth:`~repro.dist.net.daemon.WorkerDaemon.stats`
    snapshot: dial, ping once, return the stats dict.

    Raises :class:`~repro.errors.RendezvousError` (or a subclass) when
    the daemon cannot be reached or does not answer within ``timeout``.
    """
    from repro.dist import wire

    deadline = time.monotonic() + timeout
    stream = dial_stats(addr, timeout)
    try:
        try:
            # The dial can win a race with a closing daemon: the TCP
            # connect succeeds, then the first write hits the reset.
            wire.send(stream, ("ping", 0))
        except (TransportError, OSError) as exc:
            raise RendezvousError(
                f"stats stream to {addr[0]}:{addr[1]} closed before the "
                f"ping could be sent"
            ) from exc
        if not stream.poll(max(0.0, deadline - time.monotonic())):
            raise RendezvousTimeoutError(
                f"daemon at {addr[0]}:{addr[1]} did not answer a stats "
                f"ping within {timeout:.1f}s"
            )
        try:
            reply = wire.recv(stream)
        except (EOFError, TransportError, OSError) as exc:
            raise RendezvousError(
                f"stats stream to {addr[0]}:{addr[1]} closed mid-poll"
            ) from exc
        if reply[0] != "pong" or reply[1] != 0:
            raise RendezvousError(
                f"unexpected stats reply from {addr[0]}:{addr[1]}: "
                f"{reply[0]!r}"
            )
        return reply[2]
    finally:
        stream.close()


def request_shutdown(addr: Address, timeout: float = 2.0) -> None:
    """Ask the daemon at ``addr`` to stop serving (best effort)."""
    try:
        stream = _hello(addr, (HELLO_SHUTDOWN,), timeout, "worker daemon")
    except (RendezvousError, OSError):
        return  # already gone
    stream.close()


class ChannelBroker:
    """Reader-side rendezvous table for incoming channel streams.

    The daemon's acceptor thread :meth:`offer`\\ s each data connection
    under its hello key; the rank's setup :meth:`claim`\\ s it.  Offers
    for keys nobody has claimed yet are buffered (the writer dialled
    early); claims for keys nobody has offered yet block (the reader
    built early).  :meth:`drop_job` discards leftovers of an aborted
    job so its streams cannot leak into a later run.
    """

    def __init__(self):
        self._waiting: dict[tuple, FrameStream] = {}
        self._cond = threading.Condition()

    def offer(self, key: tuple, stream: FrameStream) -> None:
        with self._cond:
            # SRSW: at most one writer per (job, channel); a duplicate
            # key means a confused or malicious dialler — keep the
            # first stream, drop the newcomer.
            if key in self._waiting:
                stream.close()
                return
            self._waiting[key] = stream
            self._cond.notify_all()

    def claim(self, key: tuple, timeout: float) -> FrameStream:
        deadline = time.monotonic() + timeout
        with self._cond:
            while key not in self._waiting:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RendezvousTimeoutError(
                        f"no writer connected for channel {key[1]!r} "
                        f"(job {key[0]}) within {timeout:.1f}s"
                    )
                self._cond.wait(remaining)
            return self._waiting.pop(key)

    def drop_job(self, job_id: str) -> None:
        with self._cond:
            doomed = [k for k in self._waiting if k[0] == job_id]
            streams = [self._waiting.pop(k) for k in doomed]
        for stream in streams:
            stream.close()
