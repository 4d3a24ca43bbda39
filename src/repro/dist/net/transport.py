"""SRSW channels over TCP sockets, with the model's infinite slack intact.

:class:`SocketChannel` is the cross-host sibling of
:class:`~repro.dist.channels.ProcChannel`: one endpoint of one channel,
living in one process, speaking :mod:`repro.dist.wire` frames over a
:class:`~repro.dist.net.frames.FrameStream` instead of an OS pipe.  What
a rank may do with it is :class:`~repro.runtime.channel.ChannelCore`'s
contract, as for every kind of channel; this module is the storage.  The
design constraints are identical and the solutions are shared:

* **Infinite slack.**  Kernel TCP buffers are finite, so a raw send
  could block on a slow reader.  Sends are therefore encoded in the
  sending thread and offered to the kernel right there in one
  *non-blocking* gather (``sendmsg`` with ``MSG_DONTWAIT``) — the
  common case, which costs no queue and no thread.  Whatever the
  kernel would not take (all of a value, or the tail of a partial
  write, and then every later value until that backlog drains) goes to
  the same :class:`~repro.dist.net.feeder.SendFeeder` core the pipe
  transport uses; only its feeder thread ever blocks on the network.
* **Close/EOF cascade.**  A finishing writer flushes its queue, sends
  the framing layer's *goodbye* frame, and closes; the reader's next
  receive on the drained stream raises
  :class:`~repro.errors.EmptyChannelError`, exactly like a closed pipe.
  A writer that *dies* never sends the goodbye, so the reader gets
  :class:`~repro.errors.TransportAbortError` from the framing layer —
  surfaced here as :class:`~repro.errors.ProcessFailedError` naming the
  writer rank, so a killed remote daemon fails the run loudly instead
  of masquerading as an empty channel.
* **Statistics parity.**  ``sends`` / ``receives`` / ``bytes_sent``
  are exact and merge through the same
  :class:`~repro.runtime.system.ChannelStatsRecord` path as every other
  backend.  Transport counters land in the pipe transport's fields:
  ``frames`` counts wire frames, ``pipe_bytes`` counts
  bytes that crossed the stream (header + array frames; the socket *is*
  this transport's pipe), ``shm_bytes`` is always zero — shared memory
  cannot span hosts, so there is no staging slab and no descriptor
  metas, and every array rides the stream (the copy-on-send fallback
  path, now the only path).  ``queue_hwm`` is likewise zero: the pipe
  transport's estimate reads the receiver's counter through shared
  memory, which does not exist cross-host.

* **Vectored fast path.**  The framing layer gathers a whole encoded
  value into a single ``sendmsg`` syscall, inline or from the feeder
  alike, and bulk-buffers small receives (see
  :mod:`repro.dist.net.frames`).  Three counters measure it, surfaced
  through :meth:`stats` on the writer side: ``net_syscalls`` (send
  syscalls actually issued), ``net_syscalls_unvectored`` (what the
  historical one-``sendall``-per-piece sender would have issued for
  the same frames — the denominatorless before/after pair the ≥2×
  syscall-reduction test divides), and ``net_vectored`` (frames that
  left in a multi-frame gather batch).
* **Causal stamps** ride in the wire header of their value
  (:mod:`repro.dist.wire`), exactly as over a pipe; the framing layer
  knows nothing of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.dist import wire
from repro.dist.channels import ProcChannel
from repro.dist.net.frames import FrameStream
from repro.errors import ProcessFailedError, TransportAbortError

__all__ = ["NetEndpointSpec", "SocketChannel"]


@dataclass
class NetEndpointSpec:
    """One rank's end of one cross-host channel.

    Travels to a worker daemon inside the job frame with ``conn=None``
    and ``peer`` naming the *reader's* daemon address; the daemon dials
    (writer side) or claims the matching accepted stream (reader side)
    during job setup and fills ``conn`` with the connected
    :class:`~repro.dist.net.frames.FrameStream` before channels are
    built.  ``segment``/``slab_size`` exist for structural parity with
    :class:`~repro.dist.channels.EndpointSpec` and are always empty:
    no shared memory crosses hosts.
    """

    name: str
    writer: int
    reader: int
    role: str  # "w" | "r"
    job_id: str = ""
    peer: tuple | None = None  # (host, port) of the reader's daemon
    conn: Any = None  # FrameStream once connected
    segment: str = ""
    slab_size: int = 0

    def open(self) -> "SocketChannel":
        """The live endpoint this spec describes."""
        return SocketChannel(self)


class SocketChannel(ProcChannel):
    """One endpoint of a cross-host SRSW channel (see module docstring).

    Subclasses :class:`~repro.dist.channels.ProcChannel`: the contract
    is :class:`~repro.runtime.channel.ChannelCore`'s and the send path
    (encode in the caller, write inline or queue to the feeder) the pipe
    channel's — only the write primitives and the end-of-stream actions
    differ (goodbye frame on clean close, abort mapping on receive).
    """

    wire_metrics = {
        "wire/net_frames": "frames",
        "wire/net_bytes": "pipe_bytes",
        "wire/net_syscalls": "net_syscalls",
        "wire/net_syscalls_unvectored": "net_syscalls_unvectored",
        "wire/net_vectored": "net_vectored",
    }

    _writer_stats = ProcChannel._writer_stats + (
        "net_syscalls",
        "net_syscalls_unvectored",
        "net_vectored",
    )

    __slots__ = ()

    def __init__(self, spec: NetEndpointSpec):
        if not isinstance(spec.conn, FrameStream):
            raise TypeError(
                f"NetEndpointSpec for channel {spec.name!r} has no "
                "connected FrameStream (rendezvous incomplete?)"
            )
        super().__init__(spec)

    def _try_write_frames(self, item: tuple):
        """Sender-thread write: the whole value in one non-blocking
        gather; ``None`` when the kernel took it all, else the unsent
        byte views (a list, where a queued value is a tuple)."""
        rest = self._conn.try_send_frames(wire.encoded_frames(*item))
        return rest or None

    def _write_frames(self, item) -> None:
        """Feeder-thread write: one queued value's frames in one gather
        syscall, or the unsent tail of a partial inline write — already
        framed, so its byte views go out as they are."""
        if isinstance(item, list):
            self._conn.send_views(item)
        else:
            super()._write_frames(item)

    # -- fast-path counters (writer side; live on the frame stream so
    # they survive channel close) -------------------------------------------

    @property
    def net_syscalls(self) -> int:
        return self._conn.send_syscalls

    @property
    def net_syscalls_unvectored(self) -> int:
        return self._conn.send_syscalls_unvectored

    @property
    def net_vectored(self) -> int:
        return self._conn.vectored_frames

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

    def _get(self, timeout: float | None):
        try:
            return super()._get(timeout)
        except TransportAbortError as exc:
            raise ProcessFailedError(
                self.writer,
                TransportAbortError(
                    f"channel {self.name!r}: the stream from writer rank "
                    f"{self.writer} aborted without a clean close "
                    f"({exc}) — its host process or daemon died"
                ),
            ) from exc
