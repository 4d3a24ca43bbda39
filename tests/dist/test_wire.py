"""Wire protocol: array fast path, nested payloads, EOF semantics."""

import multiprocessing

import numpy as np
import pytest

from repro.dist import wire
from repro.util import bitwise_equal_arrays


@pytest.fixture
def pipe():
    r, w = multiprocessing.Pipe(duplex=False)
    yield r, w
    r.close()
    w.close()


def roundtrip(pipe, value):
    r, w = pipe
    wire.send(w, value)
    return wire.recv(r)


class TestArrays:
    @pytest.mark.parametrize(
        "dtype",
        ["float64", "float32", "int8", "uint16", "complex128", "bool", "S5", "U3"],
    )
    def test_fast_path_dtypes(self, pipe, dtype):
        arr = np.zeros((3, 4), dtype=dtype)
        arr.flat[0] = 1
        out = roundtrip(pipe, arr)
        assert bitwise_equal_arrays(arr, out)

    def test_bit_exactness_including_nan(self, pipe):
        arr = np.array([0.1 + 0.2, np.nan, -0.0, np.inf])
        out = roundtrip(pipe, arr)
        assert bitwise_equal_arrays(arr, out)

    def test_zero_size_array(self, pipe):
        out = roundtrip(pipe, np.empty((0, 7)))
        assert out.shape == (0, 7)

    def test_zero_dim_array(self, pipe):
        out = roundtrip(pipe, np.float64(3.5) + np.zeros(()))
        assert out.shape == () and out == 3.5

    def test_non_contiguous_array(self, pipe):
        arr = np.arange(24.0).reshape(4, 6)[::2, ::3]
        out = roundtrip(pipe, arr)
        assert bitwise_equal_arrays(np.ascontiguousarray(arr), out)

    def test_object_dtype_falls_back_to_pickle(self, pipe):
        arr = np.array([{"a": 1}, None], dtype=object)
        out = roundtrip(pipe, arr)
        assert out.dtype == object and out[0] == {"a": 1}


class TestNestedPayloads:
    def test_nested_structure(self, pipe):
        value = {
            "fields": {"ez": np.arange(12.0).reshape(3, 4)},
            "meta": (1, "x", [np.ones(5), {"k": np.int32(2)}]),
        }
        out = roundtrip(pipe, value)
        assert bitwise_equal_arrays(value["fields"]["ez"], out["fields"]["ez"])
        assert out["meta"][0] == 1 and out["meta"][1] == "x"
        assert bitwise_equal_arrays(value["meta"][2][0], out["meta"][2][0])

    def test_plain_values(self, pipe):
        assert roundtrip(pipe, ("done", 3, {"r": None})) == ("done", 3, {"r": None})

    def test_payload_nbytes_counts_array_frames(self):
        from repro.util import payload_nbytes

        arr = np.zeros(100)
        assert payload_nbytes(arr) >= arr.nbytes

    def test_ordering_preserved(self, pipe):
        r, w = pipe
        for i in range(5):
            wire.send(w, (i, np.full(3, float(i))))
        for i in range(5):
            seq, arr = wire.recv(r)
            assert seq == i and arr[0] == float(i)


class TestEOF:
    def test_recv_after_writer_close_raises_eof(self, pipe):
        r, w = pipe
        wire.send(w, "last")
        w.close()
        assert wire.recv(r) == "last"
        with pytest.raises(EOFError):
            wire.recv(r)


SLAB_SIZE = 256


@pytest.fixture
def slab():
    """A writer/reader pair over one small staging slab."""
    from repro.dist.shm import SharedStoreArena

    arena = SharedStoreArena()
    name = arena.new_channel(SLAB_SIZE)
    writer = wire.SlabWriter(name, SLAB_SIZE)
    reader = wire.SlabReader(name)
    yield writer, reader
    writer.close()
    reader.close()
    arena.cleanup()


def slab_roundtrip(pipe, slab, value):
    (r, w), (writer, reader) = pipe, slab
    header, buffers, slab_bytes = wire.encode(value, writer)
    wire.send_encoded(w, header, buffers)
    return wire.recv(r, reader), buffers, slab_bytes


class TestSlabPayloads:
    def test_fitting_array_skips_the_pipe(self, pipe, slab):
        arr = np.arange(16.0)  # 128 B < SLAB_SIZE
        out, buffers, slab_bytes = slab_roundtrip(pipe, slab, arr)
        assert buffers == []  # nothing rode the pipe
        assert slab_bytes == arr.nbytes
        assert bitwise_equal_arrays(arr, out)

    def test_descriptor_meta_is_four_tuple(self, slab):
        writer, _ = slab
        header, _, _ = wire.encode(np.arange(8.0), writer)
        from repro.dist import closures

        _, metas = closures.loads(header)
        assert len(metas) == 1 and len(metas[0]) == 4

    def test_sender_mutation_after_encode_is_invisible(self, pipe, slab):
        # Staging copies at encode time: the channel value is frozen
        # even if the body mutates its store right after the send.
        arr = np.full(16, 5.0)
        (r, w), (writer, reader) = pipe, slab
        header, buffers, _ = wire.encode(arr, writer)
        arr[...] = -1.0
        wire.send_encoded(w, header, buffers)
        assert (wire.recv(r, reader) == 5.0).all()

    def test_oversize_array_falls_back_to_pipe(self, pipe, slab):
        arr = np.arange(SLAB_SIZE, dtype=float)  # 8x the slab
        out, buffers, slab_bytes = slab_roundtrip(pipe, slab, arr)
        assert len(buffers) == 1 and slab_bytes == 0
        assert bitwise_equal_arrays(arr, out)

    def test_reader_behind_falls_back_to_pipe(self, pipe, slab):
        writer, _ = slab
        arr = np.arange(8.0)  # 64 B padded
        # Fill the ring without the reader consuming anything.
        staged = 0
        while writer.stage(arr) is not None:
            staged += 1
        assert staged == SLAB_SIZE // 64
        out, buffers, slab_bytes = slab_roundtrip(pipe, slab, arr)
        assert len(buffers) == 1 and slab_bytes == 0
        assert bitwise_equal_arrays(arr, out)

    def test_zero_size_array_never_staged(self, pipe, slab):
        out, buffers, slab_bytes = slab_roundtrip(pipe, slab, np.empty((0, 3)))
        assert slab_bytes == 0
        assert out.shape == (0, 3)

    def test_ring_wraps_correctly(self, pipe, slab):
        # 96-B arrays do not divide the 256-B ring: repeated stage/fetch
        # cycles exercise the wrap-around path several times.
        for i in range(10):
            arr = np.arange(12.0) + i
            out, buffers, _ = slab_roundtrip(pipe, slab, arr)
            assert buffers == []
            assert bitwise_equal_arrays(arr, out)

    def test_mixed_payload_splits_by_eligibility(self, pipe, slab):
        value = {
            "small": np.arange(8.0),  # staged
            "huge": np.arange(SLAB_SIZE, dtype=float),  # pipe fallback
            "plain": ("tag", 7),  # header pickle
        }
        out, buffers, slab_bytes = slab_roundtrip(pipe, slab, value)
        assert len(buffers) == 1 and slab_bytes == 64
        assert bitwise_equal_arrays(value["small"], out["small"])
        assert bitwise_equal_arrays(value["huge"], out["huge"])
        assert out["plain"] == ("tag", 7)

    def test_encode_without_slab_reports_zero_slab_bytes(self):
        header, buffers, slab_bytes = wire.encode(np.arange(4.0))
        assert slab_bytes == 0 and len(buffers) == 1
