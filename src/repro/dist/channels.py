"""SRSW channels across processes: one connected stream socket each.

A cross-process channel is one connected stream socket, framed by
:class:`~repro.dist.net.frames.FrameStream`: an ``AF_UNIX`` socketpair
made by the pool's coordinator (:func:`repro.dist.engine.
build_channel_endpoints`) or a TCP connection a worker daemon dials or
claims at rendezvous (:mod:`repro.dist.net.daemon`).  Either way the
writer rank holds one end, the reader rank the other, and values cross
as :mod:`repro.dist.wire` frames.  What a rank may do with a channel is
:class:`~repro.runtime.channel.ChannelCore`'s contract, as for every
kind of channel; :class:`SocketChannel` is only the storage:

* **Infinite slack.**  Kernel socket buffers are finite, so a raw send
  could block on a slow reader — and a balanced exchange pattern that
  is deadlock-free in the model could then deadlock in practice.  Sends
  are therefore encoded in the sending thread and offered to the kernel
  right there in one *non-blocking* gather (``sendmsg`` with
  ``MSG_DONTWAIT``) — the common case, which costs no queue and no
  thread.  Whatever the kernel would not take (all of a value, or the
  tail of a partial write, and then every later value until that
  backlog drains) goes to a :class:`~repro.dist.net.feeder.SendFeeder`,
  whose feeder thread is the only one ever to block on the socket.
  Array frames are written from the value's own buffers, so — as on
  the in-memory channel, which queues a reference — a sent value is not
  mutated afterwards (the refinement transform and the archetype
  library send fresh copies).
* **Close/EOF cascade.**  A finishing writer flushes its queue, sends
  the framing layer's *goodbye* frame, and closes; the reader's next
  receive on the drained stream raises
  :class:`~repro.errors.EmptyChannelError`.  A writer that *dies* — a
  killed pool worker or a dead daemon, whose descriptors the kernel
  closes — never sends the goodbye, so the reader gets
  :class:`~repro.errors.TransportAbortError` from the framing layer,
  surfaced here as :class:`~repro.errors.ProcessFailedError` naming the
  writer rank: the run's error attributes the death instead of blaming
  the reader for an empty channel.
* **Statistics.**  ``sends`` / ``receives`` / ``bytes_sent`` are exact.
  The writer also counts ``frames`` (wire frames: a header per value
  plus its non-empty array frames), ``pipe_bytes`` (those frames' bytes)
  and ``net_syscalls`` (send syscalls issued: one gather per value
  without back-pressure, plus the goodbye).  ``queue_hwm`` is zero: how
  far the writer ran ahead of the reader is spread over the local queue,
  two kernel buffers and the reader, and nothing reads it across them.
* **Causal stamps** ride in the wire header of their value
  (:mod:`repro.dist.wire`); the framing layer knows nothing of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dist import wire
from repro.dist.net.feeder import SendFeeder
from repro.dist.net.frames import FrameStream
from repro.errors import ProcessFailedError, TransportAbortError
from repro.runtime.channel import ChannelCore

__all__ = ["EndpointSpec", "SocketChannel"]


@dataclass
class EndpointSpec:
    """One rank's end of one cross-process channel.

    ``conn`` is the connected end: a pool's coordinator fills it at
    setup with its end of a socketpair, which crosses to the worker as
    ``SCM_RIGHTS`` and arrives there as a
    :class:`~repro.dist.net.frames.FrameStream`
    (:meth:`repro.dist.pool.WorkerPool.dispatch`).  A daemon's spec
    travels with ``conn=None`` and ``peer`` naming the *reader's* daemon
    address; the daemon dials (writer side) or claims the matching
    accepted stream (reader side) under ``job_id`` and fills ``conn``
    before channels are built.
    """

    name: str
    writer: int
    reader: int
    role: str  # "w" | "r"
    conn: Any = None
    job_id: str = ""
    peer: tuple | None = None  # (host, port) of the reader's daemon

    def open(self) -> "SocketChannel":
        """The live endpoint this spec describes."""
        return SocketChannel(self)


class SocketChannel(ChannelCore):
    """One endpoint of a cross-process SRSW channel (module docstring).

    Unlike the in-memory ``Channel``, an instance lives in *one* process
    and serves *one* role — the other end is a different
    ``SocketChannel`` in a different process (or, in tests, the same
    one).
    """

    #: ``metric -> counter attribute``: what a channel adds to an
    #: observed run's wire metrics (:func:`repro.dist.worker.run_job`).
    wire_metrics = {
        "wire/frames": "frames",
        "wire/bytes": "pipe_bytes",
        "wire/syscalls": "net_syscalls",
    }

    _writer_stats = (
        "sends",
        "bytes_sent",
        "frames",
        "pipe_bytes",
        "net_syscalls",
    )

    __slots__ = ("_conn", "_feeder", "frames", "pipe_bytes")

    def __init__(self, spec: EndpointSpec):
        if not isinstance(spec.conn, FrameStream):
            raise TypeError(
                f"EndpointSpec for channel {spec.name!r} has no connected "
                "FrameStream (rendezvous incomplete?)"
            )
        super().__init__(spec)
        self._conn = spec.conn
        self._feeder = SendFeeder(
            spec.name,
            self._write_frames,
            self._end_stream,
            try_write=self._try_write_frames,
        )
        self.frames = 0  # wire frames written (header + array frames)
        self.pipe_bytes = 0  # bytes in those frames

    @property
    def _stat_fields(self) -> tuple[str, ...]:
        return self._writer_stats if self.spec.role == "w" else ("receives",)

    @property
    def net_syscalls(self) -> int:
        """Send syscalls issued; lives on the stream, so it survives
        channel close."""
        return self._conn.send_syscalls

    # -- write side --------------------------------------------------------

    def _try_write_frames(self, item: tuple):
        """Sender-thread write: the whole value in one non-blocking
        gather; ``None`` when the kernel took it all, else the unsent
        byte views (a list, where a queued value is a tuple)."""
        rest = self._conn.try_send_frames(wire.encoded_frames(*item))
        return rest or None

    def _write_frames(self, item) -> None:
        """Feeder-thread write: one queued value's frames in one gather
        syscall, or the unsent tail of a partial inline write — already
        framed, so its byte views go out as they are.

        Kernel back-pressure blocks *here*, never in the sending body; a
        reader that exits early breaks the stream and the feeder
        discards the undeliverable remainder.
        """
        if isinstance(item, list):
            self._conn.send_views(item)
        else:
            self._conn.send_frames(wire.encoded_frames(*item))

    def _end_stream(self) -> None:
        """Feeder finisher: goodbye frame (clean close), then close.

        Runs after the queue drained — so by the time the reader sees
        the goodbye, every value this writer sent is on the stream —
        or after the stream broke, in which case the goodbye write
        fails harmlessly (the feeder swallows transport errors) and the
        socket is closed all the same.
        """
        try:
            self._conn.send_goodbye()
        finally:
            self._conn.close()

    def _put(self, value: Any, clock: int | None) -> int:
        """Never blocks (infinite slack): encoded here, then written
        inline when the kernel takes it, else queued for the feeder."""
        header, buffers, nbytes = wire.encode(value, clock)
        self._feeder.put((header, buffers))
        self.frames += 1 + sum(1 for a in buffers if a.nbytes)
        self.pipe_bytes += nbytes
        return 0

    def _shut(self) -> None:
        """Flush any queued values and say goodbye (writer), or drop the
        receive end (reader).

        Safe concurrently: the feeder's own lock ensures the flush and
        the goodbye happen exactly once no matter how many threads
        close; a dead reader breaks the stream rather than blocking the
        flush forever.
        """
        if self.spec.role == "w":
            self._feeder.close()
        else:
            self._conn.close()

    # -- read side ---------------------------------------------------------

    def _get(self, timeout: float | None):
        try:
            if timeout is not None and not self._conn.poll(timeout):
                return None
            return wire.recv_traced(self._conn)
        except TransportAbortError as exc:
            raise ProcessFailedError(
                self.writer,
                TransportAbortError(
                    f"channel {self.name!r}: the stream from writer rank "
                    f"{self.writer} aborted without a clean close "
                    f"({exc}) — its host process or daemon died"
                ),
            ) from exc

    def poll(self) -> bool:
        """True iff a receive would find data (or pending EOF) now."""
        return self._conn.poll(0)
