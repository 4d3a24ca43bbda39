"""Fleet membership: who is alive, how loaded, and how big.

The scheduler's view of each worker daemon is one :class:`DaemonState`:
address, aliveness, the scheduler-side *capacity* (how many ranks it
will place there concurrently) and *reserved* count (ranks currently
placed), plus the daemon's last self-reported
:meth:`~repro.dist.net.daemon.WorkerDaemon.stats` snapshot.

The :class:`HeartbeatMonitor` keeps that view honest: one background
thread holds a persistent ``stats`` connection per daemon
(:data:`~repro.dist.net.rendezvous.HELLO_STATS`) and pings every
``interval`` seconds (:func:`~repro.dist.net.rendezvous.ping_stats`).
Each answered ping zeroes the miss counter, refreshes the stats
snapshot, and feeds the elastic controller; each missed ping (dial
refused, timeout, dead stream, a reply that is no pong) increments it,
and ``miss_threshold`` consecutive misses flip the daemon to dead.  A
dead daemon keeps being probed — one single-shot dial per tick — so a
daemon restarted at the same address is *revived* automatically.
:meth:`HeartbeatMonitor.judge` is the one place a probe's outcome
changes a daemon's state: the scheduler's probes after a failed attempt
go through it too, with one miss meaning dead.

All state mutation happens under the scheduler's condition variable
(the same one the ready queue waits on), so a death immediately wakes
queued jobs to fail fast and a revival immediately wakes them to
place; the socket I/O itself happens outside the lock.

Capacity is **elastic**: :func:`elastic_capacity` is an AIMD-style
controller — a daemon observed running at or above its capacity grows
it by one (up to :data:`MAX_CAPACITY`, or its floor when that is
higher); a daemon observed mostly idle
shrinks by one (down to its configured floor, never below, so a burst
arriving into an idle fleet can always place immediately and the
saturation signal can start the growth).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.dist.net import rendezvous
from repro.dist.net.frames import FrameStream
from repro.errors import RendezvousError

__all__ = [
    "MAX_CAPACITY",
    "DaemonState",
    "HeartbeatMonitor",
    "elastic_capacity",
]


#: The elastic ceiling: ranks the controller lets one daemon hold at
#: most (a floor above it is its own ceiling).
MAX_CAPACITY = 8


@dataclass
class DaemonState:
    """The scheduler's bookkeeping for one worker daemon."""

    address: rendezvous.Address
    #: Ranks the scheduler will place here concurrently (elastic).
    capacity: int
    #: The configured floor capacity (elastic shrink never goes below).
    floor: int
    alive: bool = True
    #: Ranks currently reserved here by in-flight jobs.
    reserved: int = 0
    #: Consecutive missed heartbeats (reset by any answered ping).
    misses: int = 0
    #: Last stats() snapshot the daemon reported over the wire.
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def host(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def free(self) -> int:
        """Placement headroom right now (0 when dead)."""
        if not self.alive:
            return 0
        return max(0, self.capacity - self.reserved)

    def snapshot(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "alive": self.alive,
            "capacity": self.capacity,
            "reserved": self.reserved,
            "misses": self.misses,
            "ranks_active": self.stats.get("ranks_active"),
        }


def elastic_capacity(
    capacity: int, ranks_active: int, floor: int, ceiling: int
) -> int:
    """One controller step for a daemon's elastic capacity.

    Additive increase on saturation (the daemon is running at or above
    its cap — there is demand the cap is holding back), additive
    decrease when under half-busy (free the scheduler to pack other
    daemons tighter), clamped to ``[floor, ceiling]``.  The floor is
    the configured per-daemon capacity, so an idle fleet never shrinks
    below what placement needs to restart the growth loop.
    """
    if ranks_active >= capacity:
        return min(ceiling, capacity + 1)
    if ranks_active * 2 < capacity:
        return max(floor, capacity - 1)
    return capacity


class HeartbeatMonitor:
    """Background heartbeats over persistent ``stats`` connections.

    ``notify`` is called (under ``lock``) after every state change —
    the scheduler passes its condition variable's ``notify_all`` so
    deaths, revivals, and capacity growth wake the ready queue.
    ``on_death`` is called (under ``lock``) once per alive→dead flip.
    """

    def __init__(
        self,
        daemons: list[DaemonState],
        lock: threading.Condition,
        *,
        interval: float = 0.5,
        miss_threshold: int = 3,
        ping_timeout: float = 2.0,
        elastic: bool = True,
        notify=None,
        on_death=None,
    ):
        self.daemons = daemons
        self._lock = lock
        self.interval = interval
        self.miss_threshold = max(1, int(miss_threshold))
        self.ping_timeout = ping_timeout
        self.elastic = elastic
        self._notify = notify or (lambda: None)
        self._on_death = on_death or (lambda d: None)
        self._streams: dict[rendezvous.Address, FrameStream] = {}
        self._seq = 0
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="fleet-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=max(2.0, 2 * self.ping_timeout))
        for stream in self._streams.values():
            stream.close()
        self._streams.clear()

    def _loop(self) -> None:
        while not self._stopped.wait(self.interval):
            for daemon in self.daemons:
                if self._stopped.is_set():
                    return
                self.beat(daemon)

    def beat(self, daemon: DaemonState) -> None:
        """One heartbeat for one daemon (I/O outside the lock, state
        mutation inside).  Public so tests can tick deterministically."""
        stats = self._ping(daemon.address)
        with self._lock:
            self.judge(daemon, stats, self.miss_threshold)

    def judge(
        self,
        daemon: DaemonState,
        stats: dict[str, Any] | None,
        dead_after: int,
    ) -> None:
        """Fold one probe of ``daemon`` into its state; call under the
        lock.  ``None`` is a miss, and ``dead_after`` consecutive misses
        flip a live daemon to dead; a stats snapshot revives it, zeroes
        its misses and steps its elastic capacity.  A death or a revival
        notifies."""
        if stats is None:
            daemon.misses += 1
            if daemon.alive and daemon.misses >= dead_after:
                daemon.alive = False
                self._on_death(daemon)
                self._notify()
            return
        revived = not daemon.alive
        daemon.alive = True
        daemon.misses = 0
        daemon.stats = stats
        if self.elastic:
            daemon.capacity = elastic_capacity(
                daemon.capacity,
                int(stats.get("ranks_active", 0)),
                daemon.floor,
                max(daemon.floor, MAX_CAPACITY),
            )
        if revived:
            self._notify()

    def _ping(self, addr: rendezvous.Address) -> dict[str, Any] | None:
        """Ping one daemon over its persistent stream, (re)dialling on
        demand; ``None`` on any failure, after which the stream is
        closed.  A dial is one connect, so one dead daemon cannot stall
        the whole heartbeat round."""
        self._seq += 1
        stream = self._streams.get(addr)
        try:
            if stream is None:
                stream = rendezvous.dial_stats(addr, self.ping_timeout)
                self._streams[addr] = stream
            return rendezvous.ping_stats(
                stream, addr, self._seq, self.ping_timeout
            )
        except RendezvousError:
            if stream is not None:
                stream.close()
                self._streams.pop(addr, None)
            return None
