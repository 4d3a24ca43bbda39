"""Inline non-blocking channel sends: the sender's thread is the data
plane, the feeder thread only absorbs back-pressure.

Endpoints over a socketpair (a pool's channel) and over a loopback TCP
connection (a daemon's) are built in-process so the tests can stall,
resume and kill the reader at will.  The invariants, for both streams:
``send`` never blocks (infinite slack) and never raises because the
*reader* went away; values arrive in the order sent across every inline
→ queued → inline transition, partial gather-writes included; a
``feed-<name>`` thread exists only once the kernel pushed back; and the
finisher (goodbye, then close) runs exactly once.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.dist.channels import EndpointSpec, SocketChannel
from repro.dist.engine import MultiprocessEngine
from repro.dist.net.engine import SocketEngine
from repro.dist.net.feeder import running_feeder_threads
from repro.dist.net.frames import FrameStream
from repro.errors import EmptyChannelError
from repro.runtime import ProcessSpec, System, make_engine
from tests.runtime.test_channel_contract import tcp_pair

KINDS = ["unix stream", "tcp stream"]
_LEN = struct.Struct(">Q")  # the framing layer's length prefix


class CountingSocket(SocketChannel):
    """Counts how often the transport's end-of-stream action ran."""

    __slots__ = ("finished",)

    def _end_stream(self):
        self.finished += 1
        super()._end_stream()


def make_pair(kind, name):
    """(writer, reader) endpoints of one channel, both in this process."""
    a, b = socket.socketpair() if kind == "unix stream" else tcp_pair()
    w = CountingSocket(EndpointSpec(name, 0, 1, "w", FrameStream(a)))
    r = SocketChannel(EndpointSpec(name, 0, 1, "r", FrameStream(b)))
    w.finished = 0
    return w, r


def feed_threads(name=None):
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("feed-") and name in (None, t.name[5:])
    ]


def payload(i):
    """Mixed sizes, 64 B … 1 MB; bytes ride the header pickle, arrays
    ride their own frames."""
    size = 1 << 20 if i % 100 == 0 else (64, 512, 4096, 20_000, 65_536)[i % 5]
    if i % 2:
        return np.full(size // 8, float(i))
    return bytes([i % 251]) * size


def same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def fill_kernel_buffer(w, name, value):
    """Send ``value`` until the kernel pushes back; how many went inline.
    No feeder thread may exist while every send so far went inline."""
    inline = 0
    while w._feeder.pending == 0:
        assert not feed_threads(name)
        w.send((inline, value), rank=0)
        inline += 1
        assert inline < 1_000_000, "the kernel buffer never filled"
    assert feed_threads(name) == [f"feed-{name}"]
    return inline - 1  # the last one queued


def drain(r, into):
    """Reader thread body: every value up to the clean close."""
    try:
        while True:
            into.append(r.recv(rank=1, timeout=30.0))
    except EmptyChannelError:
        pass


def wait_until(cond, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


@pytest.mark.parametrize("kind", KINDS)
def test_send_never_blocks_and_order_survives_every_transition(kind):
    name = f"stall-{kind}"
    w, r = make_pair(kind, name)
    sent, got = [], []
    try:
        # Phase 1 — stalled reader: small sends go inline until the
        # kernel buffer is full; only then does the feeder appear.
        small = b"s" * 64
        inline = fill_kernel_buffer(w, name, small)
        assert inline >= 1
        sent += [(i, small) for i in range(inline + 1)]

        # Phase 2 — 1 000 more against the full buffer: none may block.
        slowest = 0.0
        for i in range(1000):
            value = (len(sent), payload(i))
            t0 = time.perf_counter()
            w.send(value, rank=0)
            slowest = max(slowest, time.perf_counter() - t0)
            sent.append(value)
        assert slowest < 0.05, f"a send took {slowest * 1e3:.1f} ms"
        assert w._feeder.pending >= 1000

        # Phase 3 — the reader resumes; the backlog drains in order...
        reader = threading.Thread(target=drain, args=(r, got))
        reader.start()
        wait_until(lambda: w._feeder.pending == 0)
        # ...and sends go inline again, behind everything queued.
        for _ in range(50):
            value = (len(sent), small)
            w.send(value, rank=0)
            sent.append(value)
            wait_until(lambda: len(got) == len(sent))
            assert w._feeder.pending == 0
        w.close()
        reader.join(30.0)
        assert not reader.is_alive()
    finally:
        r.close()  # first: a failed test must not leave close() flushing
        w.close()  # into a stalled reader forever
    assert len(got) == len(sent)
    for (i, a), (j, b) in zip(sent, got):
        assert i == j and same(a, b)
    assert w.finished == 1
    assert w.sends == len(sent)


def test_partial_gather_write_resumes_at_the_exact_byte():
    """A value bigger than the socket buffer: the inline sendmsg places
    a prefix of it, the feeder finishes the tail, and values queued
    behind the tail stay behind it."""
    name = "partial"
    w, r = make_pair("unix stream", name)
    big = np.arange(1 << 19, dtype=np.float64)  # 4 MiB
    sent = [(0, big), (1, b"after"), (2, np.arange(5.0))]
    got = []
    try:
        w.send(sent[0], rank=0)
        assert w.net_syscalls == 1  # one gather, no retry in the sender
        assert w._feeder.pending == 1  # the unsent tail
        assert feed_threads(name) == [f"feed-{name}"]
        w.send(sent[1], rank=0)
        w.send(sent[2], rank=0)
        assert w._feeder.pending == 3
        reader = threading.Thread(target=drain, args=(r, got))
        reader.start()
        wait_until(lambda: w._feeder.pending == 0)
        sent.append((3, b"inline again"))
        w.send(sent[3], rank=0)
        assert w._feeder.pending == 0
        w.close()
        reader.join(30.0)
        assert not reader.is_alive()
    finally:
        r.close()  # first: a failed test must not leave close() flushing
        w.close()  # into a stalled reader forever
    assert [i for i, _ in got] == [0, 1, 2, 3]
    assert all(same(a, b) for (_, a), (_, b) in zip(sent, got))


def test_try_send_frames_tail_survives_scratch_reuse():
    """The unsent tail owns its prefix bytes: packing another batch
    into the header scratch must not rewrite a queued tail."""
    a, b = socket.socketpair()
    w = FrameStream(a)
    filler = b"f" * 32_768
    expected = bytearray()
    data = bytearray()
    try:
        rest = []
        while not rest:  # fill the socket buffer to the brim
            rest = w.try_send_frames([filler])
            expected += _LEN.pack(len(filler)) + filler
        # Full buffer: the next try places nothing and hands the whole
        # frame back — prefix copied out of the scratch.
        marker = b"m" * 1000
        image = _LEN.pack(len(marker)) + marker
        syscalls = w.send_syscalls
        tail = w.try_send_frames([marker])
        assert w.send_syscalls == syscalls + 1  # the EAGAIN is counted
        assert type(tail[0]) is bytes and b"".join(tail) == image
        w._pack([b"zzzz", b""])  # scribble over the scratch
        assert b"".join(tail) == image
        expected += image

        def read():
            while chunk := b.recv(1 << 16):
                data.extend(chunk)

        reader = threading.Thread(target=read)
        reader.start()
        w.send_views(rest)
        w.send_views(tail)
        w.close()
        reader.join(30.0)
        assert not reader.is_alive()
    finally:
        w.close()
        b.close()
    assert bytes(data) == bytes(expected)


def test_try_send_frames_bytes_match_blocking_send():
    """Inline try-sends (tails finished by send_views) put the same
    bytes on the wire as blocking send_frames."""
    frames = [
        b"",
        b"header",
        memoryview(np.arange(300_000, dtype=np.float64)).cast("B"),
        b"tail",
    ]

    def capture(send):
        a, b = socket.socketpair()
        w = FrameStream(a)
        data = bytearray()

        def read():
            while chunk := b.recv(1 << 16):
                data.extend(chunk)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            send(w)
        finally:
            w.close()
            reader.join(30.0)
            b.close()
        return bytes(data)

    def inline(w):
        for frame in frames:
            rest = w.try_send_frames([frame])
            if rest:
                w.send_views(rest)
        rest = w.try_send_frames(frames)
        if rest:
            w.send_views(rest)

    def blocking(w):
        for frame in frames:
            w.send_frames([frame])
        w.send_frames(frames)

    assert capture(inline) == capture(blocking)


@pytest.mark.parametrize("kind", KINDS)
def test_reader_gone_mid_stream_never_raises_into_the_sender(kind):
    w, r = make_pair(kind, f"gone-{kind}")
    try:
        for i in range(10):
            w.send((i, b"v"), rank=0)
        for i in range(5):
            assert r.recv(rank=1, timeout=5.0)[0] == i
        r.close()  # what the kernel does to a SIGKILLed reader's fds
        for i in range(200):
            w.send((i, payload(i + 1)), rank=0)  # must not raise
        closer = threading.Thread(target=w.close)
        closer.start()
        closer.join(30.0)
        assert not closer.is_alive(), "close() hung on a dead reader"
        w.close()
        assert w.finished == 1
        assert w.sends == 210  # accounting unaffected by the discard
    finally:
        r.close()  # first: a failed test must not leave close() flushing
        w.close()  # into a stalled reader forever


@pytest.mark.parametrize("kind", KINDS)
def test_reader_gone_with_a_backlog_queued(kind):
    name = f"backlog-{kind}"
    w, r = make_pair(kind, name)
    try:
        fill_kernel_buffer(w, name, b"s" * 1024)
        for i in range(20):
            w.send((i, payload(i + 1)), rank=0)
        r.close()  # the feeder's blocking write breaks
        wait_until(lambda: not feed_threads(name))
        for i in range(20):
            w.send((i, b"late"), rank=0)  # discarded, not raised
        assert not feed_threads(name)
        w.close()
        w.close()
        assert w.finished == 1
    finally:
        r.close()  # first: a failed test must not leave close() flushing
        w.close()  # into a stalled reader forever


@pytest.mark.parametrize("kind", KINDS)
def test_draining_reader_needs_no_feeder_thread(kind):
    name = f"drain-{kind}"
    before = set(feed_threads())
    w, r = make_pair(kind, name)
    got = []
    reader = threading.Thread(target=drain, args=(r, got))
    reader.start()
    try:
        for i in range(200):
            # Header and array frames leave in one inline gather.
            w.send({"i": i, "ghost": np.arange(8.0) + i}, rank=0)
            assert w._feeder.pending == 0
        assert set(feed_threads()) <= before
        w.close()
        reader.join(30.0)
        assert not reader.is_alive()
    finally:
        r.close()  # first: a failed test must not leave close() flushing
        w.close()  # into a stalled reader forever
    assert [v["i"] for v in got] == list(range(200))
    assert set(feed_threads()) <= before
    assert w.finished == 1


def exchange_system(steps=60, n=625):
    """A near_small-shaped run: two ranks swapping one ghost face per
    step; each rank reports the feeder threads alive in its process."""

    def body(ctx):
        import threading as _threading

        import numpy as _np

        other = 1 - ctx.rank
        u = _np.full(n, float(ctx.rank))
        for step in range(steps):
            ctx.send(f"c{ctx.rank}", u + step)
            u = 0.5 * (u + ctx.recv(f"c{other}"))
        ctx.store["u"] = u
        return [
            t.name
            for t in _threading.enumerate()
            if t.name.startswith("feed-")
        ]

    system = System([ProcessSpec(r, body) for r in range(2)])
    for r in range(2):
        system.add_channel(f"c{r}", r, 1 - r)
    return system


@pytest.mark.parametrize("make", [
    lambda: MultiprocessEngine(start_method="fork"),
    lambda: SocketEngine(),
], ids=["multiprocess", "socket"])
def test_unpressured_exchange_runs_zero_feeder_threads(make):
    with make() as engine:
        for _ in range(2):
            result = engine.run(exchange_system())
            assert result.returns == [[], []]
            assert result.channel_stats == {"c0": (60, 60), "c1": (60, 60)}


def test_socket_engine_delivers_a_backlog_in_order_under_back_pressure():
    """64 x 1 MiB sent before the reader's first ``recv``: far more than
    the loopback socket buffers hold, so the writer's feeder drains the
    backlog one value at a time behind a stalled reader."""
    count, words = 64, 1 << 17  # 1 MiB of float64 each

    def writer(ctx):
        import numpy as _np

        from repro.dist.net.feeder import running_feeder_threads as _running

        for i in range(count):
            ctx.send("data", _np.arange(words, dtype=_np.float64) + i)
        pressured = _running()
        ctx.send("go", count)  # on its own channel: overtakes the backlog
        return pressured

    def reader(ctx):
        import numpy as _np

        ctx.recv("go")  # every data send has returned by now
        return [
            ctx.recv("data").tobytes()
            == (_np.arange(words, dtype=_np.float64) + i).tobytes()
            for i in range(count)
        ]

    system = System([ProcessSpec(0, writer), ProcessSpec(1, reader)])
    system.add_channel("data", 0, 1)
    system.add_channel("go", 0, 1)
    engine = make_engine("socket")
    try:
        result = engine.run(system)
    finally:
        engine.close()
    pressured, in_order = result.returns
    assert pressured >= 1  # the data channel's feeder was engaged
    assert in_order == [True] * count
    assert result.channel_stats["data"] == (count, count)
    assert sum(result.channel_net_syscalls.values()) >= count
    assert running_feeder_threads() == 0
