"""Single-reader single-writer channels with infinite slack.

A channel in the paper's model (section 3.1, item 3) is a FIFO queue
with one registered writer process, one registered reader process, and
unbounded capacity ("infinite slack"), read with *blocking* receives.

:class:`ChannelSpec` is the static description used when wiring a
:class:`~repro.runtime.system.System`; :class:`Channel` is the live
run-time object, created fresh for every run so a system can be executed
many times (each execution is one interleaving, and Theorem 1 is a
statement about *all* of them).

What a rank may do with a channel — and what it is told when it may
not — is written once, in :class:`ChannelCore`, for every kind of
channel: this module's in-memory :class:`Channel` (threaded and
cooperative engines) and the stream-socket-backed
:class:`~repro.dist.channels.SocketChannel` (every process-backed
engine).  A kind supplies only its storage.  The two in-process engines differ in how they wait:

* under the threaded engine a receive blocks on a condition variable
  until a value (or channel close) arrives;
* under the cooperative engine the scheduler only ever grants a receive
  when the channel is known non-empty, so the receive is made with
  ``timeout=0`` and an empty one is a scheduler bug
  (:class:`~repro.errors.EmptyChannelError`), mirroring the simulation
  rule "take care that no attempt is made to read from a channel unless
  it is known not to be empty".
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import (
    ChannelError,
    ChannelOwnershipError,
    EmptyChannelError,
)
from repro.util import payload_nbytes

__all__ = ["ChannelSpec", "ChannelCore", "Channel"]


@dataclass(frozen=True)
class ChannelSpec:
    """Static description of a channel: its name and its two endpoints.

    ``writer`` and ``reader`` are process ranks.  A spec with
    ``writer == reader`` is rejected at system-wiring time: a process
    sending to itself over a blocking-receive channel is always either
    pointless (the value was already local) or a self-deadlock risk, and
    the paper's data-exchange restriction (ii) never produces one.
    """

    name: str
    writer: int
    reader: int

    def __post_init__(self) -> None:
        if self.writer == self.reader:
            raise ChannelError(
                f"channel {self.name!r}: writer and reader are both rank "
                f"{self.writer}; SRSW channels connect distinct processes"
            )
        if self.writer < 0 or self.reader < 0:
            raise ChannelError(f"channel {self.name!r}: negative rank")


class ChannelCore:
    """The channel contract, written once for every kind of channel.

    Identity, the ownership / closed / timeout / EOF checks and their
    text, and the ``sends / receives / bytes_sent / queue_hwm`` counters
    live here; a kind supplies only its *storage*:

    ``_put(value, clock) -> int``
        Append one value with its causal stamp (``None`` when the run is
        not traced); never blocks.  Returns the value's payload byte
        count (:func:`repro.util.payload_nbytes`); a storage that can
        see its queue keeps ``queue_hwm`` here.
    ``_get(timeout) -> (value, clock) | None``
        The oldest value and the stamp it was sent with, waiting up to
        ``timeout`` seconds (``None``: indefinitely); ``None`` when the
        wait ran out, :class:`EOFError` once the writer has terminated
        with the channel empty.
    ``_get_into(timeout, landing) -> (value, clock) | None``
        :meth:`_get`, with the value landed through ``landing`` (the
        landing protocol of :mod:`repro.dist.wire`).  Written here in
        its generic form — receive, then ``landing.land(value)``, which
        checks the value and writes it region by region — which a
        storage may replace by one that lands the value as it arrives
        (and then returns ``None`` for it).
    ``poll() -> bool``
        True iff a receive would succeed immediately.
    ``_shut()``
        Release the storage; called once, by the first :meth:`close`.

    A stamp rides with its value — in the queue entry in process, in the
    header frame on a wire — so the k-th receive returns the k-th
    send's stamp on every kind.
    """

    __slots__ = (
        "spec",
        "_closed",
        "sends",
        "receives",
        "bytes_sent",
        "queue_hwm",
    )

    #: The :class:`~repro.runtime.system.ChannelStatsRecord` fields this
    #: end of the channel reports (see :meth:`stats`).
    _stat_fields: tuple[str, ...] = (
        "sends",
        "receives",
        "bytes_sent",
        "queue_hwm",
    )

    def __init__(self, spec):
        self.spec = spec
        self._closed = False
        #: total number of values ever sent on this channel
        self.sends = 0
        #: total number of values ever received from this channel
        self.receives = 0
        #: estimated payload bytes ever sent (see util.payload_nbytes)
        self.bytes_sent = 0
        #: queue-occupancy high-water mark: how far the writer ever ran
        #: ahead of the reader (the empirical face of "infinite slack")
        self.queue_hwm = 0

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def writer(self) -> int:
        return self.spec.writer

    @property
    def reader(self) -> int:
        return self.spec.reader

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{self.writer}->{self.reader})"
        )

    # -- operations ---------------------------------------------------------

    def send(self, value: Any, *, rank: int, clock: int | None = None) -> int:
        """Append ``value``; returns this send's 0-based sequence number.

        Infinite slack means a send never blocks and never fails for
        capacity reasons.  ``rank`` must be the registered writer.
        ``clock`` is the sender's causal stamp, handed back with the
        value by :meth:`recv_stamped`.
        """
        if rank != self.writer:
            raise ChannelOwnershipError(
                f"rank {rank} sent on channel {self.name!r} "
                f"owned by writer {self.writer}"
            )
        if self._closed:
            raise ChannelError(
                f"send on closed channel {self.name!r} (writer already "
                "finished once; a channel is closed exactly when its "
                "writer terminates)"
            )
        seq = self.sends
        nbytes = self._put(value, clock)
        self.sends = seq + 1
        self.bytes_sent += nbytes
        return seq

    def recv_stamped(
        self, *, rank: int, timeout: float | None = None, into: Any = None
    ) -> tuple[Any, int | None]:
        """Blocking receive: the value and the stamp it was sent with.

        With ``into`` (a landing, :mod:`repro.dist.wire`) the value is
        landed through it before this returns, and may come back as
        ``None``; the checks and errors are the same.

        Blocks until a value is available.  If the writer terminates
        while the queue is empty the receive can never succeed, so it
        raises :class:`~repro.errors.EmptyChannelError` — turning what
        would be a silent hang into a diagnosable failure.  ``timeout=0``
        is the cooperative engine's receive: its scheduler only grants
        receives on channels it has verified non-empty, so an empty
        channel there is a scheduler bug.
        """
        if rank != self.reader:
            raise ChannelOwnershipError(
                f"rank {rank} received on channel {self.name!r} "
                f"owned by reader {self.reader}"
            )
        try:
            if into is None:
                item = self._get(timeout)
            else:
                item = self._get_into(timeout, into)
        except EOFError:
            raise EmptyChannelError(
                f"receive on channel {self.name!r}: writer "
                f"{self.writer} terminated with the channel empty"
            ) from None
        if item is None:
            if timeout == 0:
                raise EmptyChannelError(
                    f"simulated receive on empty channel {self.name!r}: the "
                    "simulation rule forbids reading a channel not known to "
                    "be non-empty"
                )
            raise EmptyChannelError(
                f"receive on channel {self.name!r} timed out after "
                f"{timeout}s (likely deadlock)"
            )
        self.receives += 1
        return item

    def _get_into(self, timeout: float | None, landing: Any):
        item = self._get(timeout)
        if item is not None:
            landing.land(item[0])
        return item

    def recv(self, *, rank: int, timeout: float | None = None) -> Any:
        """:meth:`recv_stamped` without the stamp."""
        return self.recv_stamped(rank=rank, timeout=timeout)[0]

    def recv_nowait(self, *, rank: int) -> Any:
        """Non-blocking receive: a value that is already there."""
        return self.recv_stamped(rank=rank, timeout=0)[0]

    def close(self) -> None:
        """Mark this end finished and release its storage.  Idempotent."""
        if not self._closed:
            self._closed = True
            self._shut()

    def stats(self) -> dict[str, int]:
        """This end's :class:`~repro.runtime.system.ChannelStatsRecord`
        fields; the two ends of a cross-process channel report disjoint
        ones."""
        return {f: getattr(self, f) for f in self._stat_fields}


class Channel(ChannelCore):
    """A live in-memory FIFO channel: a deque and a condition.

    Thread safety: all queue operations take an internal lock, so the
    channel is safe under the free-running threaded engine.  Under the
    cooperative engine only one process acts at a time, so the lock is
    uncontended and merely cheap insurance.
    """

    __slots__ = ("_queue", "_lock", "_nonempty")

    def __init__(self, spec: ChannelSpec):
        super().__init__(spec)
        self._queue: deque[tuple[Any, int | None]] = deque()
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def poll(self) -> bool:
        """True iff a receive would succeed immediately."""
        with self._lock:
            return bool(self._queue)

    def _put(self, value: Any, clock: int | None) -> int:
        with self._lock:
            self._queue.append((value, clock))
            self._nonempty.notify()
            if len(self._queue) > self.queue_hwm:
                self.queue_hwm = len(self._queue)
        return payload_nbytes(value)

    def _get(self, timeout: float | None):
        with self._nonempty:
            while not self._queue:
                if self._closed:
                    raise EOFError
                if not self._nonempty.wait(timeout=timeout):
                    return None
            return self._queue.popleft()

    def _shut(self) -> None:
        """The writer terminated: wake any blocked reader."""
        with self._nonempty:
            self._nonempty.notify_all()

    def snapshot(self) -> tuple[Any, ...]:
        """The queued values, oldest first, without consuming them.

        Non-mutating counterpart of :meth:`drain`; the schedule
        explorer fingerprints these alongside the address spaces
        (values only: a stamp is not part of the state).
        """
        with self._lock:
            return tuple(value for value, _clock in self._queue)

    def drain(self) -> list[Any]:
        """Remove and return all queued values (diagnostics only)."""
        with self._lock:
            out = [value for value, _clock in self._queue]
            self._queue.clear()
            return out
