"""SRSW channels over OS pipes, with the model's infinite slack intact.

A cross-process channel is one OS pipe (``multiprocessing.Pipe``,
non-duplex): the writer rank holds the send end, the reader rank holds
the receive end, and values cross via :mod:`repro.dist.wire` frames.

The one place a pipe *cannot* imitate the paper's channel directly is
slack: a pipe has finite kernel capacity (~64 KiB on Linux), so a raw
``send`` would block once the reader falls that far behind — and a
balanced exchange pattern that is deadlock-free in the model could then
deadlock in practice.  :class:`ProcChannel` therefore never makes a
pipe write that could block from the sending thread.  A value whose
arrays all rode the slab is one frame of at most ``PIPE_BUF`` bytes —
which POSIX writes atomically, and which cannot block once the fd
polls writable — so the sender writes it *inline*: no queue, no thread
hop.  Anything else (an array frame that fell back to the pipe, an
oversized header, a full pipe, and then every later value until the
backlog drains) appends to an unbounded in-process queue — exactly the
semantics of :class:`repro.runtime.channel.Channel` — and a per-channel
*feeder thread*, started on that first back-pressure, drains the queue
into the pipe, blocking where the sender must not.  That
inline-write-plus-feeder core is shared with the TCP transport as
:class:`repro.dist.net.feeder.SendFeeder`.

Close/EOF mirrors the threaded engine's cascade: a writer closes its
channels when its body finishes (or its process dies, which closes the
fd either way); the reader's next receive on the emptied pipe raises
:class:`~repro.errors.EmptyChannelError` instead of hanging.

Statistics parity: ``sends``/``receives``/``bytes_sent`` are exact.
``queue_hwm`` is necessarily an estimate — occupancy is distributed
between the local queue, the pipe, and the reader — computed as
``sends - receiver's receive counter`` (a :class:`~repro.dist.shm.SharedCounter`)
sampled at each send, which bounds true occupancy from above.

The contract — who may send and receive, what a closed, timed-out or
drained channel says, the counters — is
:class:`~repro.runtime.channel.ChannelCore`'s, shared with every other
kind of channel; :class:`ProcChannel` is only the storage described
above.  A causal stamp, when the run is traced, rides in the wire header
of its value (:mod:`repro.dist.wire`).

Everything the two ends share besides the pipe — that receive counter,
the slab and the slab's consumed-watermark — is **one** shared segment
(:class:`~repro.dist.shm.ChannelSegment`), so an endpoint attaches once.
"""

from __future__ import annotations

import select
from dataclasses import dataclass
from typing import Any

from repro.dist import wire
from repro.dist.net.feeder import SendFeeder
from repro.dist.shm import ChannelSegment
from repro.runtime.channel import ChannelCore

__all__ = ["EndpointSpec", "ProcChannel"]

#: ``Connection.send_bytes`` puts a 4-byte length before every payload
#: below 2 GiB and writes both with one ``write`` when they are small.
_PIPE_PREFIX = 4


@dataclass
class EndpointSpec:
    """One rank's end of one cross-process channel.

    Shippable to a worker inside ``Process`` args (the ``conn`` handle
    is duplicated across the boundary by multiprocessing's reduction).
    ``segment`` names the channel's shared segment
    (:class:`~repro.dist.shm.ChannelSegment`: receive counter, slab
    consumed-watermark, slab), or is ``""`` when high-water-mark
    tracking is off; ``slab_size`` is the size of the payload-staging
    slab in it (see :class:`repro.dist.wire.SlabWriter`), ``0`` when
    array payloads always ride the pipe.
    """

    name: str
    writer: int
    reader: int
    role: str  # "w" | "r"
    conn: Any
    segment: str = ""
    slab_size: int = 0

    def open(self) -> "ProcChannel":
        """The live endpoint this spec describes."""
        return ProcChannel(self)


class ProcChannel(ChannelCore):
    """One endpoint of a cross-process SRSW channel: the contract of
    :class:`~repro.runtime.channel.ChannelCore` over a pipe, a slab and
    a :class:`~repro.dist.net.feeder.SendFeeder`.

    Unlike the in-memory ``Channel``, an instance lives in *one* process
    and serves *one* role — the other end is a different ``ProcChannel``
    in a different process.
    """

    #: ``metric -> counter attribute``: what this kind of channel adds
    #: to an observed run's wire metrics (:func:`repro.dist.worker.run_job`).
    wire_metrics = {
        "wire/frames": "frames",
        "wire/pipe_bytes": "pipe_bytes",
        "wire/shm_bytes": "shm_bytes",
    }

    _writer_stats: tuple[str, ...] = (
        "sends",
        "bytes_sent",
        "queue_hwm",
        "frames",
        "pipe_bytes",
        "shm_bytes",
    )

    __slots__ = (
        "_conn",
        "_segment",
        "_counter",
        "_slab_w",
        "_slab_r",
        "_feeder",
        "_pollout",
        "frames",
        "pipe_bytes",
        "shm_bytes",
    )

    def __init__(self, spec: EndpointSpec):
        super().__init__(spec)
        self._conn = spec.conn
        # One attach: the slab halves *are* the segment, extended.
        self._segment = self._slab_w = self._slab_r = None
        if spec.segment and not spec.slab_size:
            self._segment = ChannelSegment(spec.segment)
        elif spec.segment and spec.role == "w":
            self._segment = self._slab_w = wire.SlabWriter(
                spec.segment, spec.slab_size
            )
        elif spec.segment:
            self._segment = self._slab_r = wire.SlabReader(spec.segment)
        self._counter = (
            self._segment.received if self._segment is not None else None
        )
        self._pollout = None  # select.poll() on the write fd, made lazily
        self._feeder = SendFeeder(
            spec.name,
            self._write_frames,
            self._end_stream,
            try_write=self._try_write_frames,
        )
        self.frames = 0  # pipe frames written (header + inline arrays)
        self.pipe_bytes = 0  # bytes actually crossing the pipe
        self.shm_bytes = 0  # payload bytes staged through the slab

    @property
    def _stat_fields(self) -> tuple[str, ...]:
        return self._writer_stats if self.spec.role == "w" else ("receives",)

    # -- write side --------------------------------------------------------

    def _try_write_frames(self, item: tuple):
        """Sender-thread write: the value's single small frame straight
        to the pipe, or ``item`` back for the feeder.

        Only a header-only value of at most ``PIPE_BUF`` bytes
        qualifies: the kernel takes such a write whole, and — this
        being the pipe's only writer — a pipe that polls writable has
        room for it, so the write cannot block.
        """
        header, buffers = item
        if buffers or _PIPE_PREFIX + len(header) > select.PIPE_BUF:
            return item
        pollout = self._pollout
        if pollout is None:
            pollout = self._pollout = select.poll()
            pollout.register(self._conn.fileno(), select.POLLOUT)
        if not pollout.poll(0):
            return item
        self._write_frames(item)
        return None

    def _write_frames(self, item: tuple) -> None:
        """Feeder-thread write: one encoded value's frames to the pipe.

        Kernel backpressure blocks *here*, never in the sending body; a
        reader that exits early breaks the pipe and the feeder discards
        the undeliverable remainder.
        """
        wire.send_encoded(self._conn, *item)

    def _end_stream(self) -> None:
        """Feeder finisher: drop the write end so the reader sees EOF."""
        self._conn.close()

    def _put(self, value: Any, clock: int | None) -> int:
        """Never blocks (infinite slack): the value is encoded here — so
        slab staging freezes array payloads at send time, preserving
        single-assignment semantics — then written inline when the
        transport can take it without blocking; otherwise the header
        and any fallback pipe frames land on the local unbounded queue
        and the feeder thread owns the pipe write.
        """
        header, buffers, slab_bytes = wire.encode(value, self._slab_w, clock)
        self._feeder.put((header, buffers))
        self.frames += 1 + sum(1 for a in buffers if a.nbytes)
        self.pipe_bytes += len(header) + sum(a.nbytes for a in buffers)
        self.shm_bytes += slab_bytes
        if self._counter is None:
            return 0
        return self.sends + 1 - self._counter.value

    def _shut(self) -> None:
        """Flush any queued values and close the write end (EOF
        downstream); reader-side close just drops the receive end.

        Safe concurrently: the feeder's own lock ensures the flush and
        fd close happen exactly once no matter how many threads close.
        """
        if self.spec.role == "w":
            # Waits for the flush; a dead reader breaks the pipe rather
            # than blocking the join forever.
            self._feeder.close()
        else:
            try:
                self._conn.close()
            except OSError:
                pass
        if self._segment is not None:
            self._segment.close()

    # -- read side ---------------------------------------------------------

    def _get(self, timeout: float | None):
        if timeout is not None and not self._conn.poll(timeout):
            return None
        item = wire.recv_traced(self._conn, self._slab_r)
        if self._counter is not None:
            self._counter.value = self.receives + 1
        return item

    def poll(self) -> bool:
        """True iff a receive would find data (or pending EOF) now."""
        try:
            return self._conn.poll(0)
        except OSError:
            return False
