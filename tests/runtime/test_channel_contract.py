"""The channel contract, once, over every kind of channel.

:class:`~repro.runtime.channel.ChannelCore` owns what a rank may do
with a channel and what it is told when it may not; the in-memory
channel and the stream channel supply only storage.  One parametrised
body therefore checks the in-memory channel and the stream channel over
both streams the engines use — a pool's ``AF_UNIX`` socketpair and a
daemon's TCP connection: the same exception type *and message* for
every misuse, FIFO order, exact counters, and a causal stamp that comes
out with the value it went in with — whether that value carried arrays
or was header-only.

Both ends of every pair live in this process (a socketpair and a
loopback TCP connection need no fork), so the reader can be stalled,
closed or never started at will.
"""

import socket

import numpy as np
import pytest

from repro.dist.channels import EndpointSpec, SocketChannel
from repro.dist.net.frames import FrameStream
from repro.errors import (
    ChannelError,
    ChannelOwnershipError,
    EmptyChannelError,
)
from repro.runtime import ENGINE_NAMES, Channel, ChannelSpec, make_engine
from repro.runtime.system import ChannelStatsRecord
from repro.util import bitwise_equal_arrays, payload_nbytes

KINDS = ["memory", "unix stream", "tcp stream"]


def tcp_pair():
    """Both ends of one loopback TCP connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        a = socket.create_connection(listener.getsockname())
        b, _ = listener.accept()
    return a, b


@pytest.fixture(params=KINDS)
def ends(request):
    """``(writer_end, reader_end)`` of channel ``'c'``, rank 0 -> rank 1
    (one object twice for the in-memory kind)."""
    kind = request.param
    if kind == "memory":
        w = r = Channel(ChannelSpec("c", 0, 1))
    else:
        a, b = socket.socketpair() if kind == "unix stream" else tcp_pair()
        w = SocketChannel(EndpointSpec("c", 0, 1, "w", FrameStream(a)))
        r = SocketChannel(EndpointSpec("c", 0, 1, "r", FrameStream(b)))
    yield w, r
    r.close()  # first: the writer's flush must not wait on a reader
    w.close()


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return bitwise_equal_arrays(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


# ---------------------------------------------------------------------------
# Misuse: identical type and text on every kind
# ---------------------------------------------------------------------------


def test_wrong_rank_send(ends):
    w, _ = ends
    with pytest.raises(ChannelOwnershipError) as err:
        w.send(1, rank=5)
    assert str(err.value) == "rank 5 sent on channel 'c' owned by writer 0"
    assert w.sends == 0


def test_wrong_rank_recv(ends):
    w, r = ends
    w.send(1, rank=0)
    with pytest.raises(ChannelOwnershipError) as err:
        r.recv(rank=5, timeout=1.0)
    assert str(err.value) == (
        "rank 5 received on channel 'c' owned by reader 1"
    )
    assert r.receives == 0
    assert r.recv(rank=1, timeout=5.0) == 1  # nothing was consumed


def test_send_after_close(ends):
    w, _ = ends
    w.close()
    with pytest.raises(ChannelError) as err:
        w.send(1, rank=0)
    assert str(err.value) == (
        "send on closed channel 'c' (writer already finished once; a "
        "channel is closed exactly when its writer terminates)"
    )


def test_recv_timeout(ends):
    _, r = ends
    with pytest.raises(EmptyChannelError) as err:
        r.recv(rank=1, timeout=0.05)
    assert str(err.value) == (
        "receive on channel 'c' timed out after 0.05s (likely deadlock)"
    )


def test_recv_after_writer_close_drains_then_reports_eof(ends):
    w, r = ends
    w.send("last", rank=0)
    w.close()
    assert r.recv(rank=1, timeout=5.0) == "last"
    with pytest.raises(EmptyChannelError) as err:
        r.recv(rank=1, timeout=5.0)
    assert str(err.value) == (
        "receive on channel 'c': writer 0 terminated with the channel empty"
    )


def test_receive_that_may_not_wait_on_an_empty_channel(ends):
    _, r = ends
    with pytest.raises(EmptyChannelError, match="not known to be non-empty"):
        r.recv_nowait(rank=1)


# ---------------------------------------------------------------------------
# FIFO, counters, stamps
# ---------------------------------------------------------------------------


def values():
    """Header-only values, small and larger arrays, and a mix."""
    return [
        0,
        "text",
        np.arange(8.0),
        np.arange(64.0),
        {"small": np.arange(4.0), "big": np.ones((16, 16)), "n": 3},
        None,
        np.arange(8.0) * 2,
        (1, 2, 3),
    ]


def test_fifo_order_and_exact_counters(ends):
    w, r = ends
    sent = values()
    assert [w.send(v, rank=0) for v in sent] == list(range(len(sent)))
    got = [r.recv(rank=1, timeout=10.0) for _ in sent]
    assert all(same(a, b) for a, b in zip(sent, got))
    assert w.sends == len(sent)
    assert r.receives == len(sent)
    assert w.bytes_sent == sum(payload_nbytes(v) for v in sent)
    assert not r.poll()
    # The two ends' reports make one record, whatever the kind.
    record = ChannelStatsRecord("c", 0, 1, **{**w.stats(), **r.stats()})
    assert (record.sends, record.receives) == (len(sent), len(sent))
    assert record.bytes_sent == w.bytes_sent


def test_kth_stamp_in_is_kth_stamp_out(ends):
    w, r = ends
    sent = values()
    # None in, None out — interleaved with real stamps.
    clocks = [None if k % 3 == 2 else 7 * k + 1 for k in range(len(sent))]
    for v, c in zip(sent, clocks):
        w.send(v, rank=0, clock=c)
    got = [r.recv_stamped(rank=1, timeout=10.0) for _ in sent]
    assert [c for _, c in got] == clocks
    assert all(same(a, b) for a, (b, _) in zip(sent, got))
    if isinstance(w, SocketChannel):
        # ... and the stamped arrays really crossed the stream, each as
        # its own frame behind its value's header.
        arrays = [np.arange(8.0), np.arange(64.0), np.arange(4.0),
                  np.ones((16, 16)), np.arange(8.0)]
        assert w.frames == len(sent) + len(arrays)
        assert w.pipe_bytes > sum(a.nbytes for a in arrays)


# ---------------------------------------------------------------------------
# One executor: the same stamps on every engine
# ---------------------------------------------------------------------------


def test_e1_send_clocks_equal_on_all_engines():
    """Lamport stamps are a function of the (determinate) history, so
    per ``(channel, seq)`` every engine must record the same send clock
    — the in-memory queue entry and the wire header carry one stamp
    the same way — and every merged trace must validate."""
    from repro.apps.fdtd import build_parallel_fdtd
    from repro.cli import _e1_problem

    system = build_parallel_fdtd(
        pshape=(2, 1, 1), **_e1_problem()
    ).to_parallel()
    clocks = {}
    for name in ENGINE_NAMES:
        engine = make_engine(name, trace=True)
        try:
            causal = engine.run(system).trace
        finally:
            getattr(engine, "close", lambda: None)()
        assert causal.validate() == [], name
        assert causal.dropped == 0, name
        clocks[name] = {
            (e.channel, e.seq): e.clock
            for e in causal.events
            if e.kind == "send"
        }
    reference = clocks["cooperative"]
    assert reference
    for name in ENGINE_NAMES:
        assert clocks[name] == reference, name
