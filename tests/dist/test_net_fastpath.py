"""Vectored/buffered socket fast path: wire-format compatibility,
short-read fuzzing of the frame parser, truncation aborts.

The buffered reader parses frames out of a reusable scratch filled by
bulk ``recv_into``; a stream socket may deliver those bytes in
fragments of any size at any offset.  These tests replay valid frame
streams through a mock socket returning 1..k-byte short reads at every
split offset — goodbye, zero-length, and oversized (direct-path)
frames included — and assert the decode is identical to
a reference unbuffered parse, and that every truncation point raises
:class:`~repro.errors.TransportAbortError`, never a hang or a silent
empty.
"""

import os
import resource
import socket
import struct

import numpy as np
import pytest

from repro.dist import wire
from repro.dist.net.frames import _MAX_FRAME, GOODBYE, FrameStream
from repro.errors import TransportAbortError

# The published framing constants (kept in lockstep with
# repro.dist.net.frames by the format-compatibility test below).
_LEN = struct.Struct(">Q")
# Past the buffered reader's direct-read threshold (16 KiB): exercises
# the zero-copy fall-through and the scratch-drain handoff before it.
_BIG = 20_000


def frame_bytes(payload: bytes) -> bytes:
    """One frame exactly as the framing layer puts it on the wire."""
    return _LEN.pack(len(payload)) + payload


def goodbye_bytes() -> bytes:
    return _LEN.pack(GOODBYE)


#: Payload sequence covering the parser's branches: empty frames, tiny
#: frames (parsed from the scratch), and an oversized frame taking the
#: direct path.
FUZZ_FRAMES = [
    b"",
    b"x",
    b"hello-frame",
    b"",
    b"stamped",
    bytes(range(256)) * 8,  # 2 KiB: buffered, spans fills
    b"B" * _BIG,  # direct path, prefix prefetched
    b"tail",
]


def stream_bytes(frames, *, goodbye: bool) -> bytes:
    data = b"".join(frame_bytes(p) for p in frames)
    return data + (goodbye_bytes() if goodbye else b"")


def reference_decode(data: bytes):
    """The unbuffered parse: straight cursor walk over the byte stream,
    mirroring the original one-read-per-piece decoder.  Returns the
    payload list up to the goodbye; raises ``ValueError`` on
    truncation."""
    out, pos = [], 0
    while True:
        if pos + _LEN.size > len(data):
            raise ValueError("truncated at a length prefix")
        (length,) = _LEN.unpack_from(data, pos)
        pos += _LEN.size
        if length == GOODBYE:
            return out
        if pos + length > len(data):
            raise ValueError("truncated mid-payload")
        out.append(data[pos : pos + length])
        pos += length


class ShortReadSocket:
    """A mock stream socket delivering a fixed byte stream in short
    reads whose sizes cycle through ``pattern`` — every recv_into gets
    at most the next pattern element, so one logical frame arrives
    fragmented at every possible boundary over the course of a parse."""

    def __init__(self, data: bytes, pattern=(1,)):
        self._data = memoryview(bytes(data))
        self._pos = 0
        self._pattern = list(pattern)
        self._calls = 0

    # The FrameStream constructor's socket housekeeping:
    def setsockopt(self, *args) -> None:
        raise OSError("not a TCP socket")

    def settimeout(self, *args) -> None:
        pass

    def close(self) -> None:
        pass

    def fileno(self) -> int:
        return -1

    def recv_into(self, view, nbytes=None) -> int:
        remaining = len(self._data) - self._pos
        if remaining == 0:
            return 0
        k = self._pattern[self._calls % len(self._pattern)]
        self._calls += 1
        limit = len(view) if nbytes is None else min(nbytes, len(view))
        take = min(k, limit, remaining)
        view[:take] = self._data[self._pos : self._pos + take]
        self._pos += take
        return take


def buffered_decode(data: bytes, pattern=(1,)):
    """Parse ``data`` through a FrameStream over a short-reading mock
    socket; returns the payload list up to the goodbye."""
    stream = FrameStream(ShortReadSocket(data, pattern))
    out = []
    while True:
        try:
            out.append(stream.recv_bytes())
        except EOFError:
            return out


# ---------------------------------------------------------------------------
# Wire-format compatibility: the vectored sender's bytes
# ---------------------------------------------------------------------------


def test_vectored_sender_bytes_match_frame_format():
    """A send_frames gather batch puts byte-identical data on the wire
    to the documented prefix/payload layout — so the fast-path
    sender stays readable by the original unbuffered decoder."""
    a, b = socket.socketpair()
    w = FrameStream(a)
    try:
        w.send_frames(list(FUZZ_FRAMES))
        w.send_goodbye()
        expected = stream_bytes(FUZZ_FRAMES, goodbye=True)
        got = bytearray()
        b.settimeout(5.0)
        while len(got) < len(expected):
            chunk = b.recv(1 << 16)
            assert chunk, "peer closed early"
            got.extend(chunk)
        assert bytes(got) == expected
    finally:
        w.close()
        b.close()


def test_send_frames_equals_sequential_send_bytes():
    """One gather batch and N individual sends produce the same bytes."""

    def capture(send):
        a, b = socket.socketpair()
        w = FrameStream(a)
        try:
            send(w)
            w.send_goodbye()
            a2 = bytearray()
            b.settimeout(5.0)
            while True:
                chunk = b.recv(1 << 16)
                if not chunk:
                    break
                a2.extend(chunk)
                if bytes(a2).endswith(goodbye_bytes()):
                    break
            return bytes(a2)
        finally:
            w.close()
            b.close()

    batched = capture(lambda w: w.send_frames(list(FUZZ_FRAMES)))
    sequential = capture(
        lambda w: [w.send_bytes(p) for p in FUZZ_FRAMES]
    )
    assert batched == sequential


# ---------------------------------------------------------------------------
# Short-read fuzz: identical decode at every fragmentation granularity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern",
    [(1,), (2,), (3,), (5,), (7,), (1, 2, 3), (13, 1), (64,), (1 << 16,)],
)
def test_short_read_decode_identical_to_reference(pattern):
    data = stream_bytes(FUZZ_FRAMES, goodbye=True)
    expected = reference_decode(data)
    got = buffered_decode(data, pattern)
    assert got == expected


def test_short_read_decode_into_arrays():
    """recv_bytes_into under 1-byte reads: the scratch-then-direct
    handoff must land every byte of a large frame in the right place."""
    arr = np.arange(_BIG // 8, dtype=np.float64)
    raw = memoryview(arr).cast("B").tobytes()
    data = frame_bytes(b"hdr") + frame_bytes(raw) + goodbye_bytes()
    stream = FrameStream(ShortReadSocket(data, (1,)))
    assert stream.recv_bytes() == b"hdr"
    out = np.empty_like(arr)
    n = stream.recv_bytes_into(memoryview(out).cast("B"))
    assert n == len(raw)
    assert np.array_equal(out, arr)
    with pytest.raises(EOFError):
        stream.recv_bytes()


def test_length_mismatch_is_abort_not_desync():
    data = frame_bytes(b"12345") + goodbye_bytes()
    stream = FrameStream(ShortReadSocket(data, (64,)))
    buf = bytearray(3)  # wrong size on purpose
    with pytest.raises(TransportAbortError, match="does not match"):
        stream.recv_bytes_into(memoryview(buf))


# ---------------------------------------------------------------------------
# Truncation: every split offset must abort, never hang or go empty
# ---------------------------------------------------------------------------


def _collect_until_abort(data: bytes, pattern):
    stream = FrameStream(ShortReadSocket(data, pattern))
    got = []
    while True:
        try:
            got.append(stream.recv_bytes())
        except TransportAbortError:
            return got, True
        except EOFError:  # pragma: no cover - would be a test bug
            return got, False


def test_every_truncation_offset_aborts():
    """Cut a goodbye-less stream of small frames at every byte offset:
    whatever frames completed before the cut decode identically to the
    reference, and the parse then raises TransportAbortError — EOF at
    a boundary without the goodbye is a writer death, not an empty
    channel."""
    frames = [b"", b"ab", b"payload", b""]
    data = stream_bytes(frames, goodbye=False)
    full = reference_decode(data + goodbye_bytes())
    for cut in range(len(data) + 1):
        got, aborted = _collect_until_abort(data[:cut], (3,))
        assert aborted, f"no abort at offset {cut}"
        # Everything decoded before the abort is a prefix of the truth.
        assert got == full[: len(got)]


@pytest.mark.parametrize("cut_from_end", [1, _BIG // 2, _BIG - 1, _BIG])
def test_truncation_inside_direct_path_frame_aborts(cut_from_end):
    """Cuts inside an oversized frame abort on the zero-copy path too."""
    data = frame_bytes(b"B" * _BIG)
    stream = FrameStream(ShortReadSocket(data[:-cut_from_end], (1 << 16,)))
    with pytest.raises(TransportAbortError, match="mid-frame"):
        stream.recv_bytes()


# ---------------------------------------------------------------------------
# The frame bound: an impossible length is a desync, not an allocation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "length",
    [
        1 << 63,  # top bit: what announced a clock word before PR 22
        (1 << 63) | 5,
        1 << 46,  # raised MemoryError in the reader before the bound
        1 << 40,
        _MAX_FRAME + 1,
    ],
)
def test_length_prefix_above_the_frame_bound_aborts(length):
    data = _LEN.pack(length) + b"x" * 64
    for receive in (
        lambda s: s.recv_bytes(),
        lambda s: s.recv_bytes_into(memoryview(bytearray(8))),
    ):
        stream = FrameStream(ShortReadSocket(data, (3,)))
        with pytest.raises(TransportAbortError, match="out of sync"):
            receive(stream)


def test_length_prefix_at_the_frame_bound_is_a_frame():
    """The bound itself passes the length check (and then fails the
    expected-size check, which never allocates)."""
    stream = FrameStream(ShortReadSocket(_LEN.pack(_MAX_FRAME), (8,)))
    with pytest.raises(TransportAbortError, match="does not match"):
        stream.recv_bytes_into(memoryview(bytearray(8)))


def test_oversized_prefix_on_a_real_socket_aborts_without_allocating():
    a, b = socket.socketpair()
    r = FrameStream(b)
    try:
        a.sendall(_LEN.pack(1 << 46))
        with pytest.raises(TransportAbortError, match="frame bound"):
            r.recv_bytes()
    finally:
        a.close()
        r.close()


# ---------------------------------------------------------------------------
# Buffered-progress visibility: poll and has_buffered
# ---------------------------------------------------------------------------


def test_poll_and_has_buffered_see_scratch_frames():
    """A bulk fill can pull several frames into user space in one
    syscall; poll/has_buffered must report progress even though the
    mock fd would never select readable."""
    frames = [b"one", b"two", b"three"]
    data = stream_bytes(frames, goodbye=True)
    stream = FrameStream(ShortReadSocket(data, (1 << 16,)))
    assert stream.recv_bytes() == b"one"
    # The whole stream landed in the scratch on the first fill.
    assert stream.has_buffered
    assert stream.poll(0.0) is True
    assert stream.recv_bytes() == b"two"
    assert stream.recv_bytes() == b"three"
    with pytest.raises(EOFError):
        stream.recv_bytes()


def test_syscall_counters():
    data_frames = [b"header", b"payload-a", b""]
    a, b = socket.socketpair()
    w, r = FrameStream(a), FrameStream(b)
    try:
        w.send_frames(list(data_frames))
        w.send_goodbye()
        # Gather batch: one syscall for the lot (loopback socketpair
        # never short-writes a few dozen bytes), goodbye is one more.
        assert w.send_syscalls == 2
        assert [r.recv_bytes() for _ in data_frames] == data_frames
        with pytest.raises(EOFError):
            r.recv_bytes()
        assert r.recv_syscalls >= 1
    finally:
        w.close()
        r.close()


def test_send_to_closed_reader_is_transport_abort():
    a, b = socket.socketpair()
    w = FrameStream(a)
    b.close()
    try:
        with pytest.raises(TransportAbortError):
            for _ in range(64):  # first sends may land in kernel buffers
                w.send_bytes(b"x" * 4096)
    finally:
        w.close()


def test_socket_channel_reports_fastpath_stats():
    """The writer-side stats dict carries the syscall counter — one
    gather per value — and the reader side stays exactly
    {'receives': n}."""
    from repro.dist.channels import EndpointSpec, SocketChannel

    a, b = socket.socketpair()
    w = SocketChannel(EndpointSpec("c", 0, 1, "w", FrameStream(a)))
    r = SocketChannel(EndpointSpec("c", 0, 1, "r", FrameStream(b)))
    try:
        for i in range(4):
            w.send({"i": i, "u": np.arange(8.0)}, rank=0)
        w.close()  # flush + goodbye
        for i in range(4):
            got = r.recv(rank=1)
            assert got["i"] == i
        stats = w.stats()
        assert stats["sends"] == 4
        # Whole-value gather: header + array leave together, one
        # syscall per value, plus the goodbye.
        assert stats["frames"] == 2 * 4
        assert stats["net_syscalls"] == 4 + 1
        assert r.stats() == {"receives": 4}
    finally:
        r.close()


# ---------------------------------------------------------------------------
# poll past FD_SETSIZE
# ---------------------------------------------------------------------------


def test_poll_sees_data_on_a_descriptor_past_1024():
    """``select.select`` refuses descriptors >= 1024; a stream there
    must still poll ready when a frame is waiting (and idle when not)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 1200
    if hard != resource.RLIM_INFINITY and hard < want:
        pytest.skip(f"RLIMIT_NOFILE hard limit {hard} is below {want}")
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, want), hard))
    filler = []
    try:
        while not filler or filler[-1] < 1100:
            filler.append(os.open(os.devnull, os.O_RDONLY))
        a, b = socket.socketpair()
        w, r = FrameStream(a), FrameStream(b)
        try:
            assert r.fileno() >= 1024
            assert r.poll(0.05) is False
            w.send_bytes(b"past FD_SETSIZE")
            assert r.poll(0.5) is True
            assert r.recv_bytes() == b"past FD_SETSIZE"
        finally:
            w.close()
            r.close()
    finally:
        for fd in filler:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
