"""Message encoding for cross-process channels.

A channel value is shipped as a *header frame* followed by zero or more
*array frames*:

* the header is a pickle of the value's skeleton — the original nested
  dicts/lists/tuples with every eligible NumPy array replaced by an
  :class:`_ArrayRef` placeholder — plus per-array ``(dtype, shape)``
  metadata;
* each array frame is the array's raw buffer, written straight from
  the array's memory (buffer protocol) with **no pickle copy**, and
  received straight into a freshly allocated array with
  ``Connection.recv_bytes_into`` (no intermediate bytes object).

Eligible arrays are unstructured, non-object dtypes supporting the
buffer protocol; everything else rides in the header pickle, which
uses :mod:`repro.dist.closures` so even function-valued payloads (rare,
but legal on in-process channels) survive the crossing.

**Zero-copy shm payloads.**  When a channel carries a payload-staging
*slab* — a ring in the channel's one shared segment
(:class:`~repro.dist.shm.ChannelSegment`), written by a
:class:`SlabWriter` and read by a :class:`SlabReader` — eligible arrays skip the pipe entirely: the
sender copies the array into the slab *at send time* (freezing its
value, which is what keeps the model's single-assignment semantics — a
body may mutate its store right after sending) and the header's meta
becomes a four-tuple ``(dtype, shape, offset, watermark)`` descriptor.
The receiver copies the region out and publishes ``watermark`` through
the segment's consumed-counter, releasing slab space back to the writer.
When an array is larger than the slab, or the reader has fallen a full
slab behind, the array falls back to an ordinary pipe frame — the
*copy-on-send fallback* — so slack stays infinite and nothing blocks.

Frame sequences never interleave: channels are single-reader
single-writer and each endpoint performs one send/receive at a time.
FIFO pipe order plus in-order descriptor consumption is what makes the
single consumed-counter sufficient.

**Causal stamps.**  With causal tracing on (see :mod:`repro.runtime.trace`)
a value carries its sender's Lamport clock in one place, whatever the
wire: the header pickle grows a third element ``(skeleton, metas,
clock)``, and :func:`recv_traced` returns ``(value, clock)``.  With
tracing off (the default) every byte on the wire is identical to
before: tracing is a pure refinement of the transport.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dist import closures
from repro.dist.shm import ChannelSegment

__all__ = [
    "send",
    "recv",
    "recv_traced",
    "encode",
    "decode",
    "encoded_frames",
    "send_encoded",
    "SlabWriter",
    "SlabReader",
]

#: dtype kinds eligible for the raw-buffer fast path.
_FAST_KINDS = frozenset("biufcSU")

#: Slab allocations are rounded up to this many bytes so every staged
#: array starts on an aligned offset (safe for any fast-path dtype).
_SLAB_ALIGN = 16


class SlabWriter(ChannelSegment):
    """Sender half of a channel's payload-staging slab.

    A bump allocator over the slab of the channel's one shared segment
    (:class:`~repro.dist.shm.ChannelSegment`, attached here by name):
    ``allocated`` is the monotone byte watermark of everything ever
    staged (alignment padding and wrap-around skips included); the
    paired reader publishes its own monotone ``consumed`` watermark in
    the segment's header.  Free space is exactly ``size - (allocated -
    consumed)``, sampled at each stage attempt — an over-estimate never
    happens because the reader only ever advances.
    """

    __slots__ = ("size", "allocated")

    def __init__(self, name: str, size: int):
        super().__init__(name)
        # Rounding the ring size down to the alignment keeps every
        # offset handed out a multiple of _SLAB_ALIGN, wrap included.
        self.size = max(_SLAB_ALIGN, size // _SLAB_ALIGN * _SLAB_ALIGN)
        self.allocated = 0

    def stage(self, arr: np.ndarray) -> tuple[int, int] | None:
        """Copy ``arr`` into the slab; ``(offset, watermark)`` or ``None``.

        ``None`` means no space (array bigger than the slab, or the
        reader too far behind): the caller ships the array as a pipe
        frame instead.
        """
        nbytes = arr.nbytes
        if nbytes == 0 or nbytes > self.size:
            return None
        padded = -(-nbytes // _SLAB_ALIGN) * _SLAB_ALIGN
        alloc = self.allocated
        offset = alloc % self.size
        if offset + padded > self.size:  # would straddle the ring edge
            alloc += self.size - offset
            offset = 0
        watermark = alloc + padded
        if watermark - self.consumed.value > self.size:
            return None
        self.slab_view(arr.shape, arr.dtype, offset)[...] = arr
        self.allocated = watermark
        return offset, watermark


class SlabReader(ChannelSegment):
    """Receiver half of a channel's payload-staging slab."""

    __slots__ = ()

    def fetch(
        self, dtype_str: str, shape: tuple, offset: int, watermark: int
    ) -> np.ndarray:
        """Copy one staged array out and release its slab space."""
        out = self.slab_view(shape, np.dtype(dtype_str), offset).copy()
        self.consumed.value = watermark
        return out


class _ArrayRef:
    """Placeholder for the i-th extracted array in a skeleton."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __reduce__(self):
        return (_ArrayRef, (self.index,))


def _fast_path(value: Any) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind in _FAST_KINDS
        and value.dtype.names is None
    )


def _extract(value: Any, buffers: list, metas: list) -> Any:
    if _fast_path(value):
        arr = np.ascontiguousarray(value)
        metas.append((arr.dtype.str, arr.shape))
        buffers.append(arr)
        return _ArrayRef(len(buffers) - 1)
    if isinstance(value, dict):
        return {k: _extract(v, buffers, metas) for k, v in value.items()}
    if isinstance(value, list):
        return [_extract(v, buffers, metas) for v in value]
    if isinstance(value, tuple):
        return tuple(_extract(v, buffers, metas) for v in value)
    return value


def _inflate(value: Any, arrays: list) -> Any:
    if isinstance(value, _ArrayRef):
        return arrays[value.index]
    if isinstance(value, dict):
        return {k: _inflate(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_inflate(v, arrays) for v in value]
    if isinstance(value, tuple):
        return tuple(_inflate(v, arrays) for v in value)
    return value


def encode(
    value: Any, slab: SlabWriter | None = None, clock: int | None = None
) -> tuple[bytes, list[np.ndarray], int]:
    """``value`` as ``(header_bytes, pipe_array_frames, slab_bytes)``.

    With a ``slab``, every eligible array that fits is staged into it
    here — at encode time, in the sender's main thread — and travels as
    a descriptor meta; the returned frames list holds only the arrays
    that fell back to the pipe.  ``slab_bytes`` counts the staged bytes.
    With a ``clock``, the header pickle carries it as a third element;
    ``None`` (tracing off) keeps the two-element header byte-for-byte.
    """
    buffers: list[np.ndarray] = []
    metas: list[tuple] = []
    skeleton = _extract(value, buffers, metas)
    slab_bytes = 0
    if slab is not None:
        pipe_buffers: list[np.ndarray] = []
        for i, arr in enumerate(buffers):
            staged = slab.stage(arr)
            if staged is None:
                pipe_buffers.append(arr)
            else:
                metas[i] = (*metas[i], *staged)
                slab_bytes += arr.nbytes
        buffers = pipe_buffers
    head = (skeleton, metas) if clock is None else (skeleton, metas, clock)
    return closures.dumps(head), buffers, slab_bytes


def decode(header: bytes, arrays: list[np.ndarray]) -> Any:
    """Rebuild the value from a header and its received array frames."""
    skeleton = closures.loads(header)[0]
    return _inflate(skeleton, arrays)


def encoded_frames(header: bytes, buffers: list[np.ndarray]) -> list:
    """One encoded value as a frame list: the header first, then every
    non-empty array frame — the shape
    :meth:`FrameStream.send_frames` gathers into a single syscall."""
    # Always flatten to a 1-D byte view: send_bytes only casts when
    # itemsize > 1, so a multi-dimensional int8/bool array passed
    # directly would be truncated to its first axis.
    return [header] + [
        memoryview(arr).cast("B") for arr in buffers if arr.nbytes
    ]


def send_encoded(conn, header: bytes, buffers: list[np.ndarray]) -> None:
    """Write one pre-encoded value's frames to a connection.

    On vectored connections (``send_frames``, i.e. the TCP framing
    layer) the whole value — header plus every array frame — leaves in
    a single gather syscall; on plain connections each frame is its own
    ``send_bytes`` call.  The bytes on the wire are identical either
    way.
    """
    frames = encoded_frames(header, buffers)
    send_frames = getattr(conn, "send_frames", None)
    if send_frames is not None:
        send_frames(frames)
        return
    for frame in frames:
        conn.send_bytes(frame)


def send(conn, value: Any) -> None:
    """Write one value to a :class:`multiprocessing.connection.Connection`."""
    header, buffers, _ = encode(value)
    send_encoded(conn, header, buffers)


def recv(conn, slab: SlabReader | None = None) -> Any:
    """Read one value written by :func:`send` from the paired connection.

    Raises :class:`EOFError` when the writing end has been closed with
    no (complete) value pending — the cross-process analogue of a
    closed channel.  Descriptor metas (present only on slab-equipped
    channels) are resolved through ``slab``; metas must be consumed in
    order, which the SRSW discipline guarantees.
    """
    value, _clock = recv_traced(conn, slab)
    return value


def recv_traced(
    conn, slab: SlabReader | None = None
) -> tuple[Any, int | None]:
    """Like :func:`recv`, but also return the sender's causal stamp —
    the header pickle's third element, ``None`` when the message carried
    none (tracing off at the sender)."""
    loaded = closures.loads(conn.recv_bytes())
    skeleton, metas = loaded[0], loaded[1]
    arrays: list[np.ndarray] = []
    for meta in metas:
        if len(meta) == 4:
            arrays.append(slab.fetch(*meta))
            continue
        dtype_str, shape = meta
        arr = np.empty(shape, dtype=np.dtype(dtype_str))
        if arr.nbytes:
            conn.recv_bytes_into(memoryview(arr).cast("B"))
        arrays.append(arr)
    return _inflate(skeleton, arrays), loaded[2] if len(loaded) > 2 else None
