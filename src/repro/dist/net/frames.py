"""Length-prefixed framing of the wire format over a stream socket.

:class:`FrameStream` is the one cross-process byte stream: every
channel (a pool's ``AF_UNIX`` socketpair or a daemon's TCP connection),
every result and control stream, every rendezvous hello.
:mod:`repro.dist.wire` speaks to it through ``send_frames``,
``recv_bytes`` and ``recv_bytes_into`` — or ``recv_len`` then
``recv_payload_into``, to check a frame's length before allocating for
it — plus ``poll`` for timeouts: a channel value is a header frame plus
zero or more raw array frames, each behind an 8-byte big-endian length
prefix.

**Vectored send.**  Every send gathers its pieces — length prefix,
payload, and (via :meth:`FrameStream.send_frames`) *all* frames of one
encoded channel value — into a single ``socket.sendmsg`` call.
Prefixes are packed into a per-stream reusable header scratch, so the
hot path allocates no per-frame ``bytes``.  Partial gather-writes
resume from the exact byte offset, so short writes cost extra
syscalls, never corruption.  The stream counts ``send_syscalls``
(gather calls actually issued, retries included) and the bytes the
kernel took and handed over (``bytes_sent`` / ``bytes_received``,
prefixes included): what a connection cost on the wire, which is how a
coordinator reports its control streams
(:func:`repro.dist.net.engine.run_assigned`).  The same gather also comes
in a never-blocking form (:meth:`FrameStream.try_send_frames`: one
``sendmsg`` with ``MSG_DONTWAIT`` that hands back the unsent tail), so
a channel's sending thread can write the socket itself and leave only
back-pressure to the feeder thread (:mod:`repro.dist.net.feeder`).

**Buffered fast path (receive).**  Reads land in a reusable 64 KiB
scratch via bulk ``recv_into``, so one syscall can deliver many small
frames (prefixes, headers, ghost strips) which are then
parsed out of user memory.  Frames at or above
:data:`_DIRECT_THRESHOLD` fall through to the original zero-copy path:
any prefetched prefix is copied out of the scratch and the remainder is
``recv_into``'d straight into the destination array's buffer.  ``poll``
answers from the scratch first, so a frame already buffered in user
space is never mistaken for "no data"; :attr:`FrameStream.has_buffered`
exposes the same fact to multiplexers that wait on raw fds
(:func:`repro.dist.engine.collect_results`).  The fd itself is waited on
with ``poll(2)``, which has no ``FD_SETSIZE`` bound: a process holding
more than 1,024 descriptors polls its streams like any other.

Stream sockets guarantee neither whole reads nor whole writes, so both
directions loop until the frame is complete.

End-of-stream needs care: a bare EOF cannot distinguish a writer that
finished cleanly from one that was killed after its last complete frame
(the kernel closes a dead process's descriptors either way).  The
framing layer therefore makes the clean case explicit: a finishing
writer sends a *goodbye* frame (the all-ones length prefix) before
closing, and the reader maps

* goodbye frame            → ``EOFError``   (clean close: channel empty;
                             every receive after it raises it again),
* EOF without goodbye,
  EOF mid-frame, or reset  → :class:`~repro.errors.TransportAbortError`
                             (the writer died — never silently empty).

The *send* side speaks the same language: a peer that vanished surfaces
as ``BrokenPipeError``/``ConnectionResetError`` in the kernel, which
every write method maps to :class:`~repro.errors.TransportAbortError`
so a killed reader fails the writer with transport semantics rather
than a raw ``ConnectionError`` escaping a feeder thread.

**One connection, many sessions.**  A daemon's connection outlives
the run that dialled it (:mod:`repro.dist.net.rendezvous`): whoever
lent a stream to a session sets its :attr:`FrameStream.lender`, the
session's holder calls :meth:`FrameStream.end` instead of ``close``
and the lender gets it back, and the traffic counters restart at the
next session's hello (:meth:`FrameStream.zero_counters`).  A goodbye
read on such a stream is remembered (:attr:`FrameStream.goodbye_read`)
until the next session starts, so its session's reader sees the end
as often as it asks although the connection stays open.  A stream
without a lender — every socketpair — just closes.

**No frame is longer than** :data:`_MAX_FRAME`.  A length prefix above
it is not a frame but a stream out of sync (or a peer speaking something
else), and is refused as :class:`~repro.errors.MalformedFrameError`
before anything is allocated for it.  Vectoring changes the syscall
packaging, never the stream — so a fast-path sender remains readable by
the original unbuffered decoder and vice versa — and a causal stamp,
when there is one, rides inside the header frame's payload
(:mod:`repro.dist.wire`), never in the framing.
"""

from __future__ import annotations

import math
import select
import socket
import struct

from repro.errors import MalformedFrameError, TransportAbortError

__all__ = ["FrameStream", "GOODBYE"]

_LEN = struct.Struct(">Q")

#: Length-prefix sentinel announcing a clean writer close.
GOODBYE = (1 << 64) - 1

#: Per-read chunk bound on the direct path; recv_into is called with at
#: most this many bytes outstanding so a huge frame cannot force one
#: giant syscall.
_CHUNK = 1 << 20

#: Longest frame a reader accepts: 2 GiB.
_MAX_FRAME = 1 << 31

#: Size of the reusable receive scratch: one bulk recv_into can deliver
#: this many bytes' worth of small frames to parse from user memory.
_RECV_BUF = 1 << 16

#: Frames with payloads at or above this many bytes skip the scratch
#: and are received straight into the destination buffer (zero-copy);
#: smaller frames are pulled through the scratch so neighbouring frames
#: share syscalls.  Tuned well below the scratch size so a threshold
#: frame plus its successor's header still fit in one fill.
_DIRECT_THRESHOLD = 1 << 14

#: Gather-write buffer cap per sendmsg call, conservatively below any
#: platform IOV_MAX (Linux: 1024).
_IOV_CAP = 512


def _unsent(views: list, sent: int) -> list:
    """``views`` minus their first ``sent`` bytes (a short gather-write
    resumes at the exact byte)."""
    done = 0
    while done < len(views) and sent >= len(views[done]):
        sent -= len(views[done])
        done += 1
    rest = views[done:]
    if sent:
        rest[0] = rest[0][sent:]
    return rest


def _peer_hung_up() -> TransportAbortError:
    return TransportAbortError(
        "send failed: the reading peer hung up without draining "
        "the stream (peer killed?)"
    )


class FrameStream:
    """One length-prefixed frame stream over a connected socket.

    The surface :mod:`repro.dist.wire` and the engine's collection loop
    use: ``send_frames`` (a list of frames in one syscall) and its
    non-blocking twin ``try_send_frames``, ``send_bytes`` /
    ``recv_bytes`` / ``recv_bytes_into`` / ``recv_len`` /
    ``recv_payload_into`` / ``poll`` / ``fileno`` / ``close``.
    Instances are SRSW like everything above them: one thread sends at
    a time, one thread receives.
    """

    __slots__ = (
        "_sock",
        "_closed",
        "_hdr",
        "_rbuf",
        "_rview",
        "_rpos",
        "_rend",
        "_poller",
        "send_syscalls",
        "recv_syscalls",
        "bytes_sent",
        "bytes_received",
        "goodbye_read",
        "lender",
    )

    def __init__(self, sock: socket.socket):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (socketpair, Unix domain): already unbuffered
        sock.settimeout(None)  # blocking; timeouts go through poll()
        self._sock = sock
        self._closed = False
        # Reusable header scratch: prefixes of a whole gather batch are
        # packed here, so steady-state sends allocate nothing per
        # frame.  Grown on demand, never shrunk.
        self._hdr = bytearray(_LEN.size)
        # Receive scratch ring: [._rpos, ._rend) holds unparsed bytes.
        self._rbuf = bytearray(_RECV_BUF)
        self._rview = memoryview(self._rbuf)
        self._rpos = 0
        self._rend = 0
        self._poller = None  # select.poll() on the fd, made on first wait
        #: Send-side syscalls actually issued (gather calls, retries
        #: after short writes, and the goodbye included).
        self.send_syscalls = 0
        #: Receive-side recv_into syscalls (bulk fills + direct reads).
        self.recv_syscalls = 0
        #: Bytes the kernel took from / handed to this stream, length
        #: prefixes and the goodbye included: what the
        #: connection cost on the wire, whatever was framed inside.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: The peer's goodbye has been read: every later receive raises
        #: ``EOFError`` again, and :meth:`poll` reports it, as a closed
        #: socket would — a parked connection stays open behind it.
        #: Whoever starts the connection's next session clears it.
        self.goodbye_read = False
        #: Who lent this connection to the session holding it, if
        #: anyone: called with the stream, once, when that session ends
        #: it (:meth:`end`) or it closes — to park it for the next
        #: session, or to let it go (:mod:`repro.dist.net.rendezvous`).
        self.lender = None

    def fileno(self) -> int:
        """Expose the fd so ``multiprocessing.connection.wait`` (and any
        selector) can multiplex frame streams next to process sentinels.
        Callers multiplexing on the fd must also consult
        :attr:`has_buffered` — a complete frame may already sit in the
        user-space scratch while the fd shows idle."""
        return self._sock.fileno()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrameStream(fd={-1 if self._closed else self.fileno()})"

    # -- write side ---------------------------------------------------------

    def _pack(self, frames: list) -> list:
        """Frame payloads as the byte views of their wire image: per
        frame a length prefix and the payload.  Prefixes live in the
        reusable header scratch, so the views are only good until the
        next call."""
        hdr = self._hdr
        need = _LEN.size * len(frames)
        if len(hdr) < need:
            hdr = self._hdr = bytearray(need)
        hview = memoryview(hdr)
        views: list = []
        off = 0
        for payload in frames:
            view = memoryview(payload).cast("B")
            _LEN.pack_into(hdr, off, len(view))
            views.append(hview[off : off + _LEN.size])
            off += _LEN.size
            if len(view):
                views.append(view)
        return views

    def send_frames(self, frames: list) -> None:
        """Write a batch of frame payloads in (ideally) one gather
        syscall.

        Byte-identical to ``len(frames)`` separate :meth:`send_bytes`
        calls, minus the kernel round trips.  This is the blocking
        primitive whole-value sends (:func:`repro.dist.wire.send`:
        header + all array frames at once) bottom out in.
        """
        self.send_views(self._pack(frames))

    def send_views(self, views: list) -> None:
        """Blocking write of already-framed bytes — a :meth:`_pack`
        image, or the tail :meth:`try_send_frames` could not place —
        with as few syscalls as the kernel allows, resuming exactly
        after short writes.

        A peer that went away surfaces here as ``BrokenPipeError`` or
        ``ConnectionResetError``; both map to
        :class:`~repro.errors.TransportAbortError` so senders see the
        same abort type receivers do.
        """
        pending = [v for v in views if len(v)]
        try:
            while pending:
                sent = self._sock.sendmsg(pending[:_IOV_CAP])
                self.send_syscalls += 1
                self.bytes_sent += sent
                pending = _unsent(pending, sent)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _peer_hung_up() from exc

    def try_send_frames(self, frames: list) -> list:
        """Non-blocking :meth:`send_frames`: one ``sendmsg`` gather with
        ``MSG_DONTWAIT``, never a retry.

        Returns the byte views the kernel did not take — empty when the
        whole batch is on its way, everything when the socket buffer is
        full, the exact unsent tail after a partial write — for
        :meth:`send_views` to finish later.  Tail bytes that sat in the
        header scratch are copied out, so the tail stays valid while
        other batches are packed.
        """
        views = self._pack(frames)
        try:
            sent = self._sock.sendmsg(
                views[:_IOV_CAP], (), socket.MSG_DONTWAIT
            )
        except BlockingIOError:
            sent = 0
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _peer_hung_up() from exc
        self.send_syscalls += 1
        self.bytes_sent += sent
        hdr = self._hdr
        return [
            bytes(v) if v.obj is hdr else v for v in _unsent(views, sent)
        ]

    def send_bytes(self, data) -> None:
        """Write one frame: length prefix then payload, short-write
        safe; both leave in a single gather syscall."""
        self.send_frames([data])

    def send_goodbye(self) -> None:
        """Announce a clean close: the reader's next receive EOFs."""
        self.send_views([_LEN.pack(GOODBYE)])

    # -- read side ----------------------------------------------------------

    @property
    def has_buffered(self) -> bool:
        """True iff unparsed bytes sit in the user-space scratch — a
        receive may make progress even though the fd polls idle."""
        return self._rend > self._rpos

    def _fill(self) -> int:
        """One bulk ``recv_into`` onto the scratch tail; bytes read
        (0 = EOF).  Compacts first when the tail is exhausted."""
        buf = self._rbuf
        if self._rpos == self._rend:
            self._rpos = self._rend = 0
        elif self._rend == len(buf):
            held = self._rend - self._rpos
            buf[:held] = buf[self._rpos : self._rend]
            self._rpos, self._rend = 0, held
        try:
            n = self._sock.recv_into(
                self._rview[self._rend :], len(buf) - self._rend
            )
        except ConnectionError as exc:
            raise TransportAbortError(
                "stream reset with a receive outstanding (peer killed?)"
            ) from exc
        self.recv_syscalls += 1
        self.bytes_received += n
        self._rend += n
        return n

    def _require(self, n: int, *, mid_frame: bool) -> None:
        """Block until ``n`` unparsed bytes sit in the scratch."""
        while self._rend - self._rpos < n:
            if self._fill() == 0:
                have = self._rend - self._rpos
                if have == 0 and not mid_frame:
                    # EOF at a frame boundary but without a goodbye:
                    # the writer died after its last complete frame.
                    raise TransportAbortError(
                        "stream ended without a clean-close goodbye "
                        "(peer killed?)"
                    )
                raise TransportAbortError(
                    f"stream ended mid-frame ({have} of {n} bytes)"
                )

    def _recv_direct(self, view: memoryview) -> None:
        """The zero-copy tail of a large frame: straight into ``view``."""
        got = 0
        total = len(view)
        while got < total:
            try:
                n = self._sock.recv_into(view[got:], min(total - got, _CHUNK))
            except ConnectionError as exc:
                raise TransportAbortError(
                    f"stream reset with {total - got} of {total} bytes "
                    "outstanding (peer killed?)"
                ) from exc
            self.recv_syscalls += 1
            if n == 0:
                raise TransportAbortError(
                    f"stream ended mid-frame ({got} of {total} bytes)"
                )
            self.bytes_received += n
            got += n

    def _read_payload(self, view: memoryview, length: int) -> None:
        """``length`` payload bytes into ``view``: buffered for small
        frames, direct (zero-copy) for large ones."""
        have = self._rend - self._rpos
        if length <= have:
            view[:length] = self._rview[self._rpos : self._rpos + length]
            self._rpos += length
            return
        if length < _DIRECT_THRESHOLD:
            # Small frame: pull it (and, for free, whatever follows it
            # on the wire) through the scratch in bulk fills.
            self._require(length, mid_frame=True)
            view[:length] = self._rview[self._rpos : self._rpos + length]
            self._rpos += length
            return
        # Large frame: drain the prefetched prefix, then read the rest
        # straight into the destination buffer.
        if have:
            view[:have] = self._rview[self._rpos : self._rend]
            self._rpos = self._rend
        self._recv_direct(view[have:])

    def recv_len(self) -> int:
        """Consume the next frame's length prefix; ``EOFError`` on the
        goodbye marker.  The payload must be read next, with
        :meth:`recv_payload_into`: a reader that knows what the frame
        should hold compares the length first and allocates only for a
        frame that matches."""
        if self.goodbye_read:
            raise EOFError("clean close")
        self._require(_LEN.size, mid_frame=False)
        (length,) = _LEN.unpack_from(self._rbuf, self._rpos)
        self._rpos += _LEN.size
        if length == GOODBYE:
            self.goodbye_read = True
            raise EOFError("clean close")
        if length > _MAX_FRAME:
            raise MalformedFrameError(
                f"frame length {length} exceeds the {_MAX_FRAME}-byte "
                "frame bound (stream out of sync)"
            )
        return length

    def recv_payload_into(self, view) -> None:
        """Read the payload :meth:`recv_len` announced — exactly
        ``len(view)`` bytes — straight into ``view``."""
        view = memoryview(view).cast("B")
        if len(view):
            self._read_payload(view, len(view))

    def recv_bytes(self) -> bytes:
        """Read one whole frame; ``EOFError`` on the goodbye marker."""
        length = self.recv_len()
        buf = bytearray(length)
        if length:
            self._read_payload(memoryview(buf), length)
        return bytes(buf)

    def recv_bytes_into(self, view) -> int:
        """Read one frame straight into ``view`` (an array's buffer)."""
        length = self.recv_len()
        view = memoryview(view).cast("B")
        if length != len(view):
            raise MalformedFrameError(
                f"frame length {length} does not match the expected "
                f"buffer of {len(view)} bytes (stream out of sync)"
            )
        if length:
            self._read_payload(view, length)
        return length

    def poll(self, timeout: float | None = 0.0) -> bool:
        """True iff a receive would make progress now (data or EOF).

        Buffered-but-unparsed bytes count as progress: they are checked
        before the fd, so values already pulled into the scratch by a
        bulk fill are never reported as "not ready".
        """
        if self._closed:
            return False
        if self.goodbye_read or self._rend > self._rpos:
            return True
        poller = self._poller
        if poller is None:
            poller = self._poller = select.poll()
            poller.register(self._sock, select.POLLIN)
        ms = None if timeout is None else max(0, math.ceil(timeout * 1e3))
        try:
            ready = poller.poll(ms)
        except OSError:
            return False
        return bool(ready) and not ready[0][1] & select.POLLNVAL

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def zero_counters(self) -> None:
        """Start the traffic counters again: a connection that carries a
        new session counts that session only."""
        self.send_syscalls = self.recv_syscalls = 0
        self.bytes_sent = self.bytes_received = 0

    def end(self) -> None:
        """The holder's session is over: hand the connection back to its
        :attr:`lender`, or close it when it has none."""
        lender, self.lender = self.lender, None
        if lender is None:
            self.close()
        else:
            lender(self)

    def shutdown(self) -> None:
        """Hang up both directions but keep the descriptor: a thread
        waiting on this stream wakes, and the peer reads EOF."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        """Close the socket; a lender is told (it sees :attr:`closed`)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass
        lender, self.lender = self.lender, None
        if lender is not None:
            lender(self)
