"""Wire protocol: array fast path, nested payloads, EOF semantics."""

import socket

import numpy as np
import pytest

from repro.dist import wire
from repro.dist.net.frames import FrameStream
from repro.util import bitwise_equal_arrays


@pytest.fixture
def stream():
    """``(reader, writer)`` ends of one frame stream."""
    a, b = socket.socketpair()
    r, w = FrameStream(a), FrameStream(b)
    yield r, w
    r.close()
    w.close()


def roundtrip(stream, value):
    r, w = stream
    wire.send(w, value)
    return wire.recv(r)


class TestArrays:
    @pytest.mark.parametrize(
        "dtype",
        ["float64", "float32", "int8", "uint16", "complex128", "bool", "S5", "U3"],
    )
    def test_fast_path_dtypes(self, stream, dtype):
        arr = np.zeros((3, 4), dtype=dtype)
        arr.flat[0] = 1
        out = roundtrip(stream, arr)
        assert bitwise_equal_arrays(arr, out)

    def test_bit_exactness_including_nan(self, stream):
        arr = np.array([0.1 + 0.2, np.nan, -0.0, np.inf])
        out = roundtrip(stream, arr)
        assert bitwise_equal_arrays(arr, out)

    def test_zero_size_array(self, stream):
        out = roundtrip(stream, np.empty((0, 7)))
        assert out.shape == (0, 7)

    def test_zero_dim_array(self, stream):
        out = roundtrip(stream, np.float64(3.5) + np.zeros(()))
        assert out.shape == () and out == 3.5

    def test_non_contiguous_array(self, stream):
        arr = np.arange(24.0).reshape(4, 6)[::2, ::3]
        out = roundtrip(stream, arr)
        assert bitwise_equal_arrays(np.ascontiguousarray(arr), out)

    def test_object_dtype_falls_back_to_pickle(self, stream):
        arr = np.array([{"a": 1}, None], dtype=object)
        out = roundtrip(stream, arr)
        assert out.dtype == object and out[0] == {"a": 1}


class TestNestedPayloads:
    def test_nested_structure(self, stream):
        value = {
            "fields": {"ez": np.arange(12.0).reshape(3, 4)},
            "meta": (1, "x", [np.ones(5), {"k": np.int32(2)}]),
        }
        out = roundtrip(stream, value)
        assert bitwise_equal_arrays(value["fields"]["ez"], out["fields"]["ez"])
        assert out["meta"][0] == 1 and out["meta"][1] == "x"
        assert bitwise_equal_arrays(value["meta"][2][0], out["meta"][2][0])

    def test_plain_values(self, stream):
        assert roundtrip(stream, ("done", 3, {"r": None})) == ("done", 3, {"r": None})

    def test_payload_nbytes_counts_array_frames(self):
        from repro.util import payload_nbytes

        arr = np.zeros(100)
        assert payload_nbytes(arr) >= arr.nbytes

    def test_ordering_preserved(self, stream):
        r, w = stream
        for i in range(5):
            wire.send(w, (i, np.full(3, float(i))))
        for i in range(5):
            seq, arr = wire.recv(r)
            assert seq == i and arr[0] == float(i)


class TestEOF:
    def test_recv_after_writer_goodbye_raises_eof(self, stream):
        r, w = stream
        wire.send(w, "last")
        w.send_goodbye()
        w.close()
        assert wire.recv(r) == "last"
        with pytest.raises(EOFError):
            wire.recv(r)


class TestEncode:
    def test_third_value_is_the_framed_byte_count(self, stream):
        r, w = stream
        value = {"u": np.arange(4.0), "v": np.ones((2, 3), np.int8), "n": 1}
        header, buffers, nbytes = wire.encode(value)
        assert len(buffers) == 2
        assert nbytes == len(header) + 4 * 8 + 6
        w.send_frames(wire.encoded_frames(header, buffers))
        w.send_goodbye()
        assert w.bytes_sent == nbytes + 3 * 8 + 8  # prefixes, goodbye
        out = wire.recv(r)
        assert bitwise_equal_arrays(out["v"], value["v"])

    def test_header_carries_a_stamp_only_when_given(self):
        from repro.dist import closures

        assert len(closures.loads(wire.encode(1.5)[0])) == 2
        assert closures.loads(wire.encode(1.5, clock=7)[0])[2] == 7
