"""Rank rendezvous: who runs where, and how channel sockets find peers.

A network-spanning run involves three kinds of parties:

* the **coordinator** (the :class:`~repro.dist.net.engine.SocketEngine`
  in the launching process), which assigns ranks to daemons and opens
  one *control* session per rank;
* one **worker daemon** per host (:mod:`repro.dist.net.daemon`), which
  listens on a single TCP port for both control and data connections;
* the per-rank **channel dials**: for every channel, the writer rank's
  daemon connects directly to the reader rank's daemon — data never
  relays through the coordinator.

A connection to a daemon carries a series of *sessions*, each opened by
one *hello* frame that tags what the session is::

    ("control",)                      coordinator -> daemon, one per rank;
                                      the job frame follows, then the
                                      session is the rank's result
                                      stream (need/ready/done/error),
                                      over after its terminal report
    ("data", job_id, channel_name)    writer daemon -> reader daemon;
                                      the session is the channel's byte
                                      stream, over after the writer's
                                      goodbye and the reader's *release*
                                      (a goodbye sent back)
    ("stats",)                        monitor -> daemon: the connection
                                      becomes a ping/pong telemetry
                                      stream (each ("ping", seq) frame
                                      is answered with ("pong", seq,
                                      stats-dict); :func:`ping_stats`
                                      is the one asker) — one-shot
                                      pollers send a single ping
                                      (:func:`poll_stats`), fleet
                                      schedulers keep it open as the
                                      heartbeat wire
    ("shutdown",)                     coordinator -> daemon: stop serving

A session's end hands the connection back to the :class:`StreamPool` of
whoever dialled it (a coordinator's engine or fleet for control
connections, the writer's daemon for data ones), and the next hello to
the same daemon goes out on it: a warm run dials, accepts and starts
nothing.  Routing is the same for a reused connection as for a new one.
A parked connection is taken again only when it is provably idle —
nothing unread on it, no EOF, and for a data connection its release
read — so a reader that is still finishing, or a peer that died, never
sees the next session's hello; anything else closes it, and a new
connection is dialled in its place.

A new connection is dialled once (:func:`_hello`): every daemon a run
names is listening before the run starts — a loopback daemon reports
its address only after its ``listen()``, and the socket engine waits
for an operator's hosts once, at first use — so a refused dial means a
dead daemon, and it is an immediate
:class:`~repro.errors.RendezvousError` naming ``host:port``.  Whoever
dialled decides what follows (a failed rank, a fleet's re-placement on
the survivors), never a wait for a daemon that is gone.

Ordering is the interesting part: the writer's dial can land before the
reader's job frame has even arrived at its daemon (the coordinator
dispatches ranks one at a time).  The reader side's
:class:`ChannelBroker` absorbs every such race: a rendezvous table keyed
by ``(job_id, channel_name)``, where data sessions are *offered* as
their hello arrives (buffered if the claimant is not ready), and the
rank's setup *claims* them, blocking up to the handshake timeout.
Either party may be first; ``job_id`` keeps streams of back-to-back
runs from cross-matching.  A claim that cannot complete inside the
timeout raises :class:`~repro.errors.RendezvousTimeoutError` — never a
silent hang.
"""

from __future__ import annotations

import functools
import os
import socket
import threading
import time
import weakref

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
    "dial_channel",
    "dial_control",
    "dial_stats",
    "ping_stats",
    "poll_stats",
    "request_shutdown",
    "ChannelBroker",
    "StreamPool",
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

#: Idle connections a :class:`StreamPool` keeps per daemon address; one
#: parked beyond them is closed.
MAX_PARKED = 16


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


def _hello(
    addr: Address,
    payload: tuple,
    timeout: float,
    what: str,
    pool: "StreamPool | None" = None,
    release_due: bool = False,
) -> FrameStream:
    """Open a session at ``addr`` with ``payload``: on a connection
    parked in ``pool`` when one is idle, else on a new one.  A parked
    connection that fails the hello is closed and the next is tried, so
    only a new connection's failure is an error.  With a ``pool`` the
    session's end parks the connection there — one that must first
    read its peer's release when ``release_due``."""
    from repro.dist import wire

    while True:
        stream = pool.take(addr) if pool is not None else None
        fresh = stream is None
        if fresh:
            try:
                sock = socket.create_connection(addr, timeout=timeout)
            except OSError as exc:
                raise RendezvousError(
                    f"could not connect to {what} at {addr[0]}:{addr[1]}: "
                    f"{exc}"
                ) from exc
            stream = FrameStream(sock)
        try:
            wire.send(stream, payload)
        except (TransportError, OSError) as exc:
            stream.close()
            if not fresh:
                continue
            raise RendezvousError(
                f"handshake with {what} at {addr[0]}:{addr[1]} failed: {exc}"
            ) from exc
        if pool is not None:
            stream.lender = functools.partial(pool.park, addr, release_due)
        return stream


def dial_control(
    addr: Address, timeout: float, pool: "StreamPool | None" = None
) -> FrameStream:
    """Coordinator side: open one rank's control session — on a
    connection parked in ``pool``, when there is one."""
    return _hello(addr, (HELLO_CONTROL,), timeout, "worker daemon", pool)


def dial_channel(
    addr: Address,
    job_id: str,
    channel: str,
    timeout: float,
    pool: "StreamPool | None" = None,
) -> FrameStream:
    """Writer side: open a channel's stream to the reader's daemon — on
    a connection parked in ``pool`` whose last reader released it, when
    there is one."""
    return _hello(
        addr,
        (HELLO_DATA, job_id, channel),
        timeout,
        f"reader daemon for channel {channel!r}",
        pool,
        release_due=True,
    )


def dial_stats(addr: Address, timeout: float) -> FrameStream:
    """Monitor side: open a persistent ping/pong telemetry stream, for
    :func:`ping_stats` to ask over.  Fleet heartbeats hold one of these
    open per daemon."""
    return _hello(addr, (HELLO_STATS,), timeout, "worker daemon")


def ping_stats(
    stream: FrameStream, addr: Address, seq: int, timeout: float
) -> dict:
    """Send ``("ping", seq)`` on the stats stream to ``addr`` and return
    the stats dict of its ``("pong", seq, stats)`` reply.

    Anything else — a stream that breaks or closes (a dial can win a
    race with a closing daemon), no whole reply within ``timeout``, a
    reply of any other shape — raises
    :class:`~repro.errors.RendezvousError` naming ``addr``, and the
    stream is no longer fit for pinging.  ``timeout`` bounds the whole
    exchange, not just the reply's first byte: at the deadline a timer
    hangs the stream up (:meth:`FrameStream.shutdown` wakes the blocked
    read), so a peer that sends part of a frame and then goes quiet
    costs ``timeout`` too.  That is a
    :class:`~repro.errors.RendezvousTimeoutError`, and the stream is
    closed.
    """
    from repro.dist import wire

    where = f"{addr[0]}:{addr[1]}"
    # Taken by whichever comes first: the end of the read, or the timer.
    first = threading.Lock()
    late = threading.Timer(
        timeout, lambda: first.acquire(blocking=False) and stream.shutdown()
    )
    late.daemon = True
    late.start()
    broke = None
    try:
        wire.send(stream, ("ping", seq))
        reply = wire.recv(stream)
    except (EOFError, TransportError, OSError) as exc:
        broke = exc
    finally:
        late.cancel()
    if not first.acquire(blocking=False):
        stream.close()
        raise RendezvousTimeoutError(
            f"daemon at {where} did not answer stats ping {seq} within "
            f"{timeout:.1f}s"
        )
    if broke is not None:
        raise RendezvousError(
            f"stats stream to {where} broke at ping {seq}: {broke}"
        ) from broke
    if (
        type(reply) is not tuple
        or tuple(map(type, reply)) != (str, int, dict)
        or reply[:2] != ("pong", seq)
    ):
        raise RendezvousError(
            f"daemon at {where} answered stats ping {seq} with "
            f"{reply!r:.80}"
        )
    return reply[2]


def poll_stats(addr: Address, timeout: float = 5.0) -> dict:
    """One-shot remote :meth:`~repro.dist.net.daemon.WorkerDaemon.stats`
    snapshot: dial, ping once, close.  Raises
    :class:`~repro.errors.RendezvousError` (or a subclass) when the
    daemon cannot be reached or does not answer a pong within
    ``timeout``."""
    stream = dial_stats(addr, timeout)
    try:
        return ping_stats(stream, addr, 0, timeout)
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

    A daemon's connection handler :meth:`offer`\\ s each data session
    under its hello key; the rank's setup :meth:`claim`\\ s it.  Offers
    for keys nobody has claimed yet are buffered (the writer dialled
    early); claims for keys nobody has offered yet block (the reader
    built early).  :meth:`drop_job` discards leftovers of an aborted
    job so its streams cannot leak into a later run, :meth:`withdraw`
    one offer nobody claimed in time, and :meth:`close` every offer.
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

    def withdraw(self, key: tuple, stream: FrameStream) -> bool:
        """Take back ``stream``'s offer if nobody has claimed it; True
        when it was still waiting."""
        with self._cond:
            if self._waiting.get(key) is not stream:
                return False
            del self._waiting[key]
            return True

    def drop_job(self, job_id: str) -> None:
        self._drop(lambda key: key[0] == job_id)

    def close(self) -> None:
        self._drop(lambda key: True)

    def _drop(self, doomed) -> None:
        with self._cond:
            keys = [k for k in self._waiting if doomed(k)]
            streams = [self._waiting.pop(k) for k in keys]
        for stream in streams:
            stream.close()


def _reusable(stream: FrameStream, release_due: bool) -> bool | None:
    """Whether a parked connection can open a session now: ``None``
    while the release it waits for (``release_due``) has not come, else
    True only when nothing at all is left to read on it — no frame, no
    EOF, no reset."""
    if stream.closed:
        return False
    if release_due:
        if not stream.poll(0):
            return None
        try:
            stream.recv_len()
            return False  # a frame where the release belongs
        except EOFError:
            stream.goodbye_read = False  # the release: the session is over
        except (TransportError, OSError):
            return False
    return not stream.poll(0)


class StreamPool:
    """Connections to daemons, parked between the sessions they carry.

    :func:`dial_control` and :func:`dial_channel` open a session on a
    parked connection to the same address when one is idle
    (:func:`_reusable`), oldest first, and dial a new one otherwise; the
    session's end (:meth:`~repro.dist.net.frames.FrameStream.end`) parks
    it again.  Each session counts its own traffic.  At most
    :data:`MAX_PARKED` connections per address are kept, parked ones
    close on :meth:`close`, and a forked child closes its copies of
    them at once (the parent's connections stay open).
    """

    def __init__(self):
        self._parked: dict[Address, list[tuple[FrameStream, bool]]] = {}
        self._lock = threading.Lock()
        _pools.add(self)

    def park(
        self, addr: Address, release_due: bool, stream: FrameStream
    ) -> None:
        """Keep ``stream`` for a later session at ``addr`` (the lender a
        pooled hello installs); a closed one is let go."""
        if not stream.closed:
            with self._lock:
                parked = self._parked.setdefault(addr, [])
                if len(parked) < MAX_PARKED:
                    parked.append((stream, release_due))
                    return
            stream.close()

    def take(self, addr: Address) -> FrameStream | None:
        """A parked connection to ``addr`` that can open a session now,
        its counters zeroed; ``None`` when there is none.  Dead ones
        found on the way are closed; ones still waiting stay parked."""
        with self._lock:
            parked = self._parked.pop(addr, [])
        found = None
        waiting = []
        for i, (stream, release_due) in enumerate(parked):
            ok = _reusable(stream, release_due)
            if ok:
                found = stream
                waiting += parked[i + 1 :]
                break
            if ok is None:
                waiting.append((stream, release_due))
            else:
                stream.close()
        if waiting:
            with self._lock:
                self._parked[addr] = waiting + self._parked.get(addr, [])
        if found is not None:
            found.zero_counters()
        return found

    def close(self) -> None:
        """Close every parked connection; the pool stays usable."""
        with self._lock:
            parked, self._parked = self._parked, {}
        for entries in parked.values():
            for stream, _release_due in entries:
                stream.close()


_pools: "weakref.WeakSet[StreamPool]" = weakref.WeakSet()


def _close_parked_in_child() -> None:
    # The child's copies only: the parent's descriptors keep every
    # connection open.  A lock another thread held at fork is replaced.
    for pool in list(_pools):
        pool._lock = threading.Lock()
        pool.close()


os.register_at_fork(after_in_child=_close_parked_in_child)
