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
  ``recv_bytes_into`` (no intermediate bytes object).

Eligible arrays are unstructured, non-object dtypes supporting the
buffer protocol; everything else rides in the header pickle, which
uses :mod:`repro.dist.closures` so even function-valued payloads (rare,
but legal on in-process channels) survive the crossing.

The frames travel over a :class:`~repro.dist.net.frames.FrameStream`,
the one cross-process byte stream, which gathers a whole value into one
``sendmsg``.  Frame sequences never interleave: channels are
single-reader single-writer and each endpoint performs one send/receive
at a time.

**Causal stamps.**  With ``trace=True`` (see :mod:`repro.runtime.trace`)
a value carries its sender's Lamport clock in one place, whatever the
wire: the header pickle grows a third element ``(skeleton, metas,
clock)``, and :func:`recv_traced` returns ``(value, clock)``.  With
tracing off (the default, ``observe=True`` alone included) every byte
on the wire is identical to before: tracing is a pure refinement of
the transport.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dist import closures

__all__ = [
    "send",
    "recv",
    "recv_traced",
    "encode",
    "decode",
    "encoded_frames",
]

#: dtype kinds eligible for the raw-buffer fast path.
_FAST_KINDS = frozenset("biufcSU")


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
    value: Any, clock: int | None = None
) -> tuple[bytes, list[np.ndarray], int]:
    """``value`` as ``(header_bytes, array_frames, nbytes)``.

    ``nbytes`` is the value's framed byte count: the header plus every
    array frame, which is what a channel adds to its ``pipe_bytes``.
    With a ``clock``, the header pickle carries it as a third element;
    ``None`` (tracing off) keeps the two-element header byte-for-byte.
    """
    buffers: list[np.ndarray] = []
    metas: list[tuple] = []
    skeleton = _extract(value, buffers, metas)
    head = (skeleton, metas) if clock is None else (skeleton, metas, clock)
    header = closures.dumps(head)
    return header, buffers, len(header) + sum(a.nbytes for a in buffers)


def decode(header: bytes, arrays: list[np.ndarray]) -> Any:
    """Rebuild the value from a header and its received array frames."""
    skeleton = closures.loads(header)[0]
    return _inflate(skeleton, arrays)


def encoded_frames(header: bytes, buffers: list[np.ndarray]) -> list:
    """One encoded value as a frame list: the header first, then every
    non-empty array frame — the shape
    :meth:`FrameStream.send_frames` gathers into a single syscall."""
    # Always flatten to a 1-D byte view: a multi-dimensional
    # int8/bool array viewed as-is would be framed by its first axis.
    return [header] + [
        memoryview(arr).cast("B") for arr in buffers if arr.nbytes
    ]


def send(conn, value: Any) -> None:
    """Write one value to a :class:`~repro.dist.net.frames.FrameStream`,
    header and array frames in one gather."""
    header, buffers, _ = encode(value)
    conn.send_frames(encoded_frames(header, buffers))


def recv(conn) -> Any:
    """Read one value written by :func:`send` from the paired stream.

    Raises :class:`EOFError` when the writing end said goodbye with no
    value pending — the cross-process analogue of a closed channel.
    """
    value, _clock = recv_traced(conn)
    return value


def recv_traced(conn) -> tuple[Any, int | None]:
    """Like :func:`recv`, but also return the sender's causal stamp —
    the header pickle's third element, ``None`` when the message carried
    none (tracing off at the sender)."""
    loaded = closures.loads(conn.recv_bytes())
    skeleton, metas = loaded[0], loaded[1]
    arrays: list[np.ndarray] = []
    for dtype_str, shape in metas:
        arr = np.empty(shape, dtype=np.dtype(dtype_str))
        if arr.nbytes:
            conn.recv_bytes_into(memoryview(arr).cast("B"))
        arrays.append(arr)
    return _inflate(skeleton, arrays), loaded[2] if len(loaded) > 2 else None
