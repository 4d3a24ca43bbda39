"""The array-message header and receives that land in place.

An exchange payload ``{"stage": k, "values": [arrays]}`` crosses a
stream under a fixed ``struct`` header (kind ``A``, flags, stage, clock,
count, then per array a dtype code, ``ndim`` and shape), and a receive
through a landing reads each frame into the receiver's bound target
view.  Every other value keeps the pickled header.

The hostile cases write a hand-made header onto a real socketpair and
read it back: each must end in a typed error — ``MalformedFrameError``
(a ``TransportAbortError``) from the wire, ``RefinementError`` /
``StoreError`` from the landing — without allocating what the header
promises and without waiting for frames that are not coming.
"""

import socket
import struct
import tracemalloc

import numpy as np
import pytest

from repro.dist import closures, wire
from repro.dist.channels import EndpointSpec, SocketChannel
from repro.dist.net.frames import FrameStream
from repro.errors import (
    MalformedFrameError,
    ProcessFailedError,
    RefinementError,
    StoreError,
    TransportAbortError,
)
from repro.refinement import AddressSpace, VarRef
from repro.refinement.dataexchange import Assignment
from repro.refinement.transform import _Landing
from repro.util import bitwise_equal_arrays, payload_nbytes

#: dtype codes of the array header, as the wire numbers them
I4, F8 = 5, 11


@pytest.fixture
def stream():
    """``(reader, writer)`` ends of one frame stream."""
    a, b = socket.socketpair()
    r, w = FrameStream(a), FrameStream(b)
    yield r, w
    r.close()
    w.close()


def array_header(stage, entries, clock=None, count=None, kind=ord("A")):
    """An array-message header by hand: ``entries`` are
    ``(dtype code, shape)``."""
    head = struct.pack(
        "<BBqqI",
        kind,
        0 if clock is None else 1,
        stage,
        clock or 0,
        len(entries) if count is None else count,
    )
    for code, shape in entries:
        head += struct.pack(f"<BB{len(shape)}q", code, len(shape), *shape)
    return head


def send_raw(w, header, *frames, goodbye=True):
    """One header and its frames as a sender would gather them, then
    (by default) the writer's clean close, so a reader that wants more
    frames than were sent gets an error rather than a wait."""
    w.send_frames([header, *[memoryview(f).cast("B") for f in frames]])
    if goodbye:
        w.send_goodbye()


def message(stage, *values):
    return {"stage": stage, "values": list(values)}


def landing_on(variables, targets, source=0, rank=1, stage=3):
    """A ``_Landing`` for ``targets`` (``(var, region)`` pairs) on a
    fresh address space over ``variables``."""
    space = AddressSpace.wrap(variables, owner=rank)
    assignments = [
        Assignment(VarRef(rank, var, region), VarRef(source, var, region))
        for var, region in targets
    ]
    landing = _Landing(space, rank, source, assignments)
    landing.stage = stage
    return landing


class TestEncoding:
    def test_an_exchange_payload_gets_the_array_header(self):
        value = message(7, np.arange(6.0).reshape(2, 3), np.ones(4, np.int32))
        header, buffers, nbytes = wire.encode(value)
        assert header == array_header(7, [(F8, (2, 3)), (I4, (4,))])
        assert nbytes == len(header) + 48 + 16
        assert wire.payload_nbytes(value, header, buffers) == payload_nbytes(
            value
        )
        assert wire.decode(header, buffers) == {"stage": 7, "values": buffers}

    def test_a_clock_rides_in_the_header(self):
        header, _, _ = wire.encode(message(2, np.zeros(1)), clock=41)
        assert header == array_header(2, [(F8, (1,))], clock=41)

    @pytest.mark.parametrize(
        "value",
        [
            message(1, np.zeros(2, dtype=object)),
            message(1, np.zeros(2, dtype=">f8")),
            message(1, np.zeros(2, dtype="U3")),
            message(True, np.zeros(2)),
            message(1 << 63, np.zeros(2)),
            {"stage": 1, "values": (np.zeros(2),)},
            {"stage": 1, "values": [np.zeros(2)], "extra": 0},
            message(1, np.zeros(2), 3.0),
        ],
        ids=["object", "big-endian", "unicode", "bool-stage",
             "huge-stage", "tuple", "extra-key", "scalar-value"],
    )
    def test_anything_else_keeps_the_pickled_header(self, stream, value):
        header, buffers, _ = wire.encode(value)
        assert header[0] == 0x80
        assert wire.payload_nbytes(value, header, buffers) == payload_nbytes(
            value
        )
        r, w = stream
        wire.send(w, value)
        out = wire.recv(r)
        assert type(out["values"]) is type(value["values"])
        assert out["stage"] == value["stage"]

    def test_round_trip_with_stamp(self, stream):
        r, w = stream
        strided = np.arange(24.0).reshape(4, 6)[:, 1:4]
        value = message(-5, strided, np.zeros((0, 3)), np.full((), 2, np.float32))
        header, buffers, _ = wire.encode(value, clock=9)
        w.send_frames(wire.encoded_frames(header, buffers))
        out, clock = wire.recv_traced(r)
        assert header[0] == ord("A")
        assert clock == 9 and out["stage"] == -5
        for sent, got in zip(value["values"], out["values"]):
            assert bitwise_equal_arrays(np.ascontiguousarray(sent), got)


class TestLengthFirst:
    """A header's promise is checked against the frame's length prefix
    before anything is allocated for it, for both header kinds."""

    @pytest.mark.parametrize("kind", ["pickled", "array"])
    def test_a_promise_of_8_tib_is_refused_not_allocated(self, stream, kind):
        r, w = stream
        if kind == "pickled":
            header = closures.dumps((wire._ArrayRef(0), [("<f8", (1 << 40,))]))
        else:
            header = array_header(0, [(F8, (1 << 40,))])
        send_raw(w, header, np.zeros(1))
        tracemalloc.start()
        try:
            with pytest.raises(TransportAbortError, match="does not match"):
                wire.recv(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_header_promising_more_frames_than_sent_does_not_wait(
        self, stream
    ):
        r, w = stream
        send_raw(w, array_header(0, [(F8, (2,)), (F8, (2,))]), np.zeros(2))
        with pytest.raises(TransportAbortError, match="inside a message"):
            wire.recv(r)


class TestHostileHeaders:
    def expect(self, stream, header, frames, error, match, shape=(4,)):
        """Send ``header`` + ``frames``, receive through a landing on a
        float64 ``g`` of ``shape``, and check the error, the memory and
        that ``g`` was not written."""
        r, w = stream
        send_raw(w, header, *frames)
        variables = {"g": np.zeros(shape)}
        landing = landing_on(variables, [("g", None)])
        tracemalloc.start()
        try:
            with pytest.raises(error, match=match):
                wire.recv_into(r, landing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert not variables["g"].any()

    def test_truncated_header(self, stream):
        header = array_header(3, [(F8, (4,))])
        self.expect(stream, header[:9], [], TransportAbortError, "truncated")

    def test_truncated_metadata(self, stream):
        header = array_header(3, [(F8, (4,))])
        self.expect(
            stream, header[:-3], [], TransportAbortError, "truncated"
        )

    def test_flipped_kind_byte(self, stream):
        header = bytearray(array_header(3, [(F8, (4,))]))
        header[0] ^= 0x01
        self.expect(
            stream, bytes(header), [np.ones(4)], TransportAbortError,
            "unknown kind",
        )

    def test_count_above_the_plans(self, stream):
        header = array_header(3, [(F8, (4,))], count=1 << 31)
        self.expect(
            stream, header, [np.ones(4)], RefinementError,
            r"rank 1 expected 1 values from 0 at stage 3, got 2147483648",
        )

    def test_ndim_disagreeing_with_the_target(self, stream):
        header = array_header(3, [(F8, (4, 4))])
        self.expect(
            stream, header, [np.ones(4)], StoreError, "shape mismatch"
        )

    def test_shape_disagreeing_with_the_frame(self, stream):
        # the target takes the header's (2, 2); the frame holds 4 bytes
        self.expect(
            stream, array_header(3, [(F8, (2, 2))]), [np.ones(4, np.int8)],
            TransportAbortError, "does not match", shape=(2, 2),
        )

    def test_unknown_dtype_code(self, stream):
        header = array_header(3, [(200, (4,))])
        self.expect(
            stream, header, [np.ones(4)], TransportAbortError,
            "unknown dtype code 200",
        )

    def test_negative_shape(self, stream):
        header = array_header(3, [(F8, (-4,))])
        self.expect(
            stream, header, [np.ones(4)], TransportAbortError,
            "negative shape",
        )

    def test_trailing_metadata(self, stream):
        header = array_header(3, [(F8, (4,))]) + b"\0"
        self.expect(
            stream, header, [np.ones(4)], TransportAbortError,
            "1 bytes after its 1 arrays",
        )

    def test_diverged_stage_token(self, stream):
        header = array_header(4, [(F8, (4,))])
        self.expect(
            stream, header, [np.ones(4)], RefinementError,
            "rank 1 expected exchange stage 3 from 0, got 4",
        )

    def test_constant_target(self, stream):
        r, w = stream
        send_raw(w, array_header(3, [(F8, (4,))]), np.ones(4))
        const = np.zeros(4)
        const.flags.writeable = False
        with pytest.raises(StoreError, match="assignment to constant 'g'"):
            wire.recv_into(r, landing_on({"g": const}, [("g", None)]))


class TestChannelBlame:
    """A receive through a real ``SocketChannel`` fails the writer rank
    either way, but says "died" only for a stream that ended without its
    goodbye, never for a frame the wire cannot parse."""

    def receive(self, r, landed):
        channel = SocketChannel(EndpointSpec("dx_0_1", 0, 1, "r", r))
        landing = landing_on({"g": np.zeros(4)}, [("g", None)]) if landed else None
        with pytest.raises(ProcessFailedError) as excinfo:
            channel.recv_stamped(rank=1, timeout=5.0, into=landing)
        assert excinfo.value.rank == 0
        return excinfo.value

    @pytest.mark.parametrize("landed", [False, True], ids=["plain", "landed"])
    def test_a_flipped_kind_byte_is_a_malformed_frame(self, stream, landed):
        r, w = stream
        header = bytearray(array_header(3, [(F8, (4,))]))
        header[0] ^= 0x01
        send_raw(w, bytes(header), np.ones(4))
        error = self.receive(r, landed)
        assert isinstance(error.original, MalformedFrameError)
        assert "writer rank 0 carried a malformed frame" in str(error)
        assert "unknown kind" in str(error) and "died" not in str(error)

    @pytest.mark.parametrize("landed", [False, True], ids=["plain", "landed"])
    @pytest.mark.parametrize(
        "header, says",
        [
            (b"\x80\x05garbage-not-a-pickle", "does not unpickle"),
            (closures.dumps(5), "holds a int"),
            (closures.dumps((np.zeros(2),)), "holds a tuple"),
        ],
        ids=["garbage", "int", "one-tuple"],
    )
    def test_a_header_that_does_not_unpickle_is_a_malformed_frame(
        self, stream, landed, header, says
    ):
        r, w = stream
        send_raw(w, header)
        error = self.receive(r, landed)
        assert isinstance(error.original, MalformedFrameError)
        assert "writer rank 0 carried a malformed frame" in str(error)
        assert says in str(error) and "died" not in str(error)
        with pytest.raises(MalformedFrameError, match=says):
            wire.decode(header, [])

    @pytest.mark.parametrize("landed", [False, True], ids=["plain", "landed"])
    def test_a_stream_closed_without_its_goodbye_says_the_writer_died(
        self, stream, landed
    ):
        r, w = stream
        w.close()
        error = self.receive(r, landed)
        assert not isinstance(error.original, MalformedFrameError)
        assert "without a clean close" in str(error) and "died" in str(error)


class TestLanding:
    def test_contiguous_targets_are_the_sinks(self, stream):
        r, w = stream
        variables = {"f": np.zeros((4, 3))}
        landing = landing_on(variables, [("f", (slice(1, 3), slice(None)))])
        wire.send(w, message(3, np.full((2, 3), 2.0)))
        wire.recv_into(r, landing)
        ((sink, strip),) = landing.pairs
        assert strip is None and np.shares_memory(sink, variables["f"])
        assert variables["f"][1:3].tolist() == [[2.0] * 3] * 2
        assert not variables["f"][[0, 3]].any()

    def test_strided_targets_take_one_copy_from_a_bound_scratch(self, stream):
        r, w = stream
        variables = {"f": np.zeros((4, 3))}
        landing = landing_on(variables, [("f", (slice(None), slice(1, 2)))])
        for stage, fill in ((3, 1.0), (5, 2.0)):
            landing.stage = stage
            wire.send(w, message(stage, np.full((4, 1), fill)))
            wire.recv_into(r, landing)
            assert variables["f"][:, 1].tolist() == [fill] * 4
            if stage == 3:
                pairs = landing.pairs
        assert landing.pairs is pairs  # bound once, reused
        ((sink, strip),) = pairs
        assert not np.shares_memory(sink, variables["f"])
        assert np.shares_memory(strip, variables["f"])

    def test_a_replaced_store_array_is_rebound(self, stream):
        r, w = stream
        variables = {"g": np.zeros(4)}
        landing = landing_on(variables, [("g", None)])
        wire.send(w, message(3, np.ones(4)))
        wire.recv_into(r, landing)
        first = variables["g"]
        variables["g"] = np.zeros(4)  # a local block assigned it anew
        assert landing.bound(landing.meta) is None
        wire.send(w, message(3, np.full(4, 2.0)))
        wire.recv_into(r, landing)
        assert first.tolist() == [1.0] * 4
        assert variables["g"].tolist() == [2.0] * 4

    def test_other_metadata_with_a_safe_cast_lands(self, stream):
        r, w = stream
        variables = {"g": np.zeros(4)}
        landing = landing_on(variables, [("g", None)])
        wire.send(w, message(3, np.ones(4)))
        wire.recv_into(r, landing)
        wire.send(w, message(3, np.arange(4, dtype=np.float32)))
        wire.recv_into(r, landing)
        assert variables["g"].dtype == np.float64
        assert variables["g"].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_other_metadata_with_an_unsafe_cast_raises(self, stream):
        r, w = stream
        variables = {"g": np.zeros(4)}
        landing = landing_on(variables, [("g", None)])
        wire.send(w, message(3, np.ones(4)))
        wire.recv_into(r, landing)
        wire.send(w, message(3, np.ones(4, np.complex128)))
        with pytest.raises(StoreError, match="unsafe cast"):
            wire.recv_into(r, landing)
        assert variables["g"].tolist() == [1.0] * 4

    def test_a_scalar_variable_is_replaced_as_before(self, stream):
        r, w = stream
        variables = {"s": 0.0}
        landing = landing_on(variables, [("s", None)])
        wire.send(w, message(3, np.arange(3.0)))
        wire.recv_into(r, landing)
        assert variables["s"].tolist() == [0.0, 1.0, 2.0]

    def test_a_pickled_value_is_landed_whole(self, stream):
        r, w = stream
        variables = {"g": np.zeros(2), "s": None}
        landing = landing_on(variables, [("g", None), ("s", None)])
        wire.send(w, message(3, np.ones(2), "tag"))
        wire.recv_into(r, landing)
        assert variables["g"].tolist() == [1.0, 1.0] and variables["s"] == "tag"
