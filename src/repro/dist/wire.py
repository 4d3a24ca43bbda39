"""Message encoding for cross-process channels.

A channel value is shipped as a *header frame* followed by zero or more
*array frames*.  Each array frame is an array's raw buffer, written
straight from the array's memory (buffer protocol) with **no pickle
copy**.  The header comes in two kinds, told apart by its first byte:

* **Array message** (kind byte ``A``).  The refinement transform's
  exchange payload, ``{"stage": k, "values": [arrays]}`` with every
  array's dtype in the code table (bool, the sized integers, the
  floats and complexes, native byte order), is a fixed ``struct``: the
  kind byte, a flags byte (bit 0: a clock follows), the stage token,
  the Lamport clock (0 when there is none), the value count, and per
  array its dtype code, ``ndim`` and shape.  Nothing is pickled and
  nothing walks the value.
* **Pickled** (the pickle protocol byte, ``0x80``).  Any other value:
  a pickle of the value's skeleton — the original nested
  dicts/lists/tuples with every eligible NumPy array replaced by an
  :class:`_ArrayRef` placeholder — plus per-array ``(dtype, shape)``
  metadata.  Eligible arrays are unstructured, non-object dtypes
  supporting the buffer protocol; everything else rides in the pickle,
  which uses :mod:`repro.dist.closures` so even function-valued
  payloads (rare, but legal on in-process channels) survive the
  crossing.

:func:`recv` rebuilds either kind as the value that was sent, each
array a fresh one allocated only after its frame's length prefix has
been checked against the header's ``(dtype, shape)``: a corrupt header
is a :class:`~repro.errors.MalformedFrameError`, never an allocation
of what it promises.  :func:`recv_into` instead *lands* an array
message in a receiver's bound target views (the landing protocol
below): a frame goes straight into a C-contiguous target of its dtype
with ``recv_bytes_into``, or through a scratch bound with the target
and one copy into a strided one (a ghost strip), so a warm receive
allocates no array and makes no store write call.

The frames travel over a :class:`~repro.dist.net.frames.FrameStream`,
the one cross-process byte stream, which gathers a whole value into one
``sendmsg``.  Frame sequences never interleave: channels are
single-reader single-writer and each endpoint performs one send/receive
at a time.

**Causal stamps.**  With ``trace=True`` (see :mod:`repro.runtime.trace`)
a value carries its sender's Lamport clock in its header, whatever the
kind: the array header's clock field (flag bit 0 set), or a third
element of the pickle, ``(skeleton, metas, clock)``.  :func:`recv_traced`
returns ``(value, clock)``.  Tracing changes nothing else on the wire.

**The landing protocol.**  What :func:`recv_into` asks of its target
(:class:`repro.refinement.transform` implements it):

``land(value)``
    Check and write a whole received value (the pickled kind, or an
    array message whose targets cannot be bound).
``check(stage, count)``
    Refuse a message whose stage token or value count is not the
    expected one, before any frame is read.
``bound(meta) -> pairs | None``
    The ``(sink, strip)`` pairs bound for header metadata ``meta`` (the
    array header from its count on, as bytes), or ``None`` when there
    are none for it — nothing bound yet, other metadata, or a store
    array replaced since.
``bind(meta, metas) -> pairs | None``
    Check every target against ``metas`` (``[(dtype, shape)]``) and
    bind its pair: each frame is read into ``sink``, then copied into
    ``strip`` unless that is ``None``.  ``None`` when a target is not
    an array the value can fill (the value then goes to ``land``).
"""

from __future__ import annotations

import math
import struct
from typing import Any

import numpy as np

from repro import util
from repro.dist import closures
from repro.errors import MalformedFrameError

__all__ = [
    "send",
    "recv",
    "recv_traced",
    "recv_into",
    "encode",
    "decode",
    "encoded_frames",
    "payload_nbytes",
]

#: dtype kinds eligible for the raw-buffer fast path.
_FAST_KINDS = frozenset("biufcSU")

#: First byte of an array-message header; a pickled header starts with
#: the pickle protocol byte.
_ARRAYS = ord("A")
_PICKLED = 0x80

#: Array header, fixed part: kind, flags, stage token, clock.  The
#: metadata that follows is a count, then per array a dtype code and
#: ``ndim``, then the shape.
_FIXED = struct.Struct("<BBqq")
_COUNT = struct.Struct("<I")
_ENTRY = struct.Struct("<BB")
_HAS_CLOCK = 1

#: dtype code -> dtype: the array message carries a code, not a name.
_DTYPES = tuple(
    np.dtype(c)
    for c in (
        "?", "i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8",
        "f2", "f4", "f8", "c8", "c16",
    )
)
_CODE_OF = {dtype: code for code, dtype in enumerate(_DTYPES)}
_MESSAGE_KEYS = {"stage", "values"}
_INT64 = range(-(1 << 63), 1 << 63)
#: Deepest array numpy can make.
_MAX_NDIM = 64


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


def _message_arrays(value: Any) -> list[np.ndarray] | None:
    """The arrays of an exchange payload the array header can describe,
    C-contiguous; ``None`` for any other value."""
    if type(value) is not dict or value.keys() != _MESSAGE_KEYS:
        return None
    stage, values = value["stage"], value["values"]
    if type(stage) is not int or stage not in _INT64 or type(values) is not list:
        return None
    arrays = []
    for arr in values:
        if type(arr) is not np.ndarray or arr.dtype not in _CODE_OF:
            return None
        arrays.append(np.ascontiguousarray(arr))
    return arrays


def _array_header(stage: int, clock: int | None, arrays: list) -> bytes:
    parts = [
        _FIXED.pack(
            _ARRAYS,
            0 if clock is None else _HAS_CLOCK,
            stage,
            0 if clock is None else clock,
        ),
        _COUNT.pack(len(arrays)),
    ]
    for arr in arrays:
        parts.append(
            struct.pack(
                f"<BB{arr.ndim}q", _CODE_OF[arr.dtype], arr.ndim, *arr.shape
            )
        )
    return b"".join(parts)


def encode(
    value: Any, clock: int | None = None
) -> tuple[bytes, list[np.ndarray], int]:
    """``value`` as ``(header_bytes, array_frames, nbytes)``.

    ``nbytes`` is the value's framed byte count: the header plus every
    array frame, which is what a channel adds to its ``pipe_bytes``.
    An exchange payload gets the array header, anything else the
    pickled one; ``clock`` rides in either (module docstring).
    """
    arrays = _message_arrays(value)
    if arrays is not None:
        header = _array_header(value["stage"], clock, arrays)
        return header, arrays, len(header) + sum(a.nbytes for a in arrays)
    buffers: list[np.ndarray] = []
    metas: list[tuple] = []
    skeleton = _extract(value, buffers, metas)
    head = (skeleton, metas) if clock is None else (skeleton, metas, clock)
    header = closures.dumps(head)
    return header, buffers, len(header) + sum(a.nbytes for a in buffers)


def payload_nbytes(value: Any, header: bytes, buffers: list) -> int:
    """:func:`repro.util.payload_nbytes` of an encoded ``value``.  An
    array message's is read off its frames, not walked: the arrays'
    bytes and one word for the stage token."""
    if header[0] == _ARRAYS:
        return 8 + sum(a.nbytes for a in buffers)
    return util.payload_nbytes(value)


def _fixed(header: bytes) -> tuple[int, int | None, int]:
    """An array header's ``(stage, clock, count)``."""
    try:
        _kind, flags, stage, clock = _FIXED.unpack_from(header)
        (count,) = _COUNT.unpack_from(header, _FIXED.size)
    except struct.error:
        raise MalformedFrameError(
            f"array-message header of {len(header)} bytes is truncated"
        ) from None
    return stage, clock if flags & _HAS_CLOCK else None, count


def _metas(meta: bytes, count: int) -> list[tuple[np.dtype, tuple]]:
    """``[(dtype, shape)]`` from an array header's metadata, which must
    describe exactly ``count`` arrays and nothing else."""
    out = []
    off = _COUNT.size
    try:
        for _ in range(count):
            code, ndim = _ENTRY.unpack_from(meta, off)
            off += _ENTRY.size
            if code >= len(_DTYPES):
                raise MalformedFrameError(
                    f"array-message header names unknown dtype code {code}"
                )
            if ndim > _MAX_NDIM:
                raise MalformedFrameError(
                    f"array-message header gives an array {ndim} dimensions"
                )
            shape = struct.unpack_from(f"<{ndim}q", meta, off)
            off += 8 * ndim
            if min(shape, default=0) < 0:
                raise MalformedFrameError(
                    f"array-message header gives negative shape {shape}"
                )
            out.append((_DTYPES[code], shape))
    except struct.error:
        raise MalformedFrameError(
            f"array-message header for {count} arrays is truncated"
        ) from None
    if off != len(meta):
        raise MalformedFrameError(
            f"array-message header has {len(meta) - off} bytes after its "
            f"{count} arrays"
        )
    return out


def _cut_short() -> MalformedFrameError:
    return MalformedFrameError(
        "the writer closed its stream inside a message, before the "
        "array frames its header announced"
    )


def _recv_array(conn, dtype: np.dtype, shape: tuple) -> np.ndarray:
    """One array frame as a fresh array, allocated only once the frame's
    length prefix matches ``(dtype, shape)``."""
    if min(shape, default=0) < 0:
        raise MalformedFrameError(f"header gives negative shape {shape}")
    nbytes = dtype.itemsize * math.prod(shape)
    if not nbytes:
        return np.empty(shape, dtype)
    try:
        length = conn.recv_len()
    except EOFError:
        raise _cut_short() from None
    if length != nbytes:
        raise MalformedFrameError(
            f"frame length {length} does not match the header's "
            f"{dtype} array of shape {tuple(shape)} (stream out of sync)"
        )
    arr = np.empty(shape, dtype)
    conn.recv_payload_into(arr)
    return arr


def _read_header(conn) -> bytes:
    header = conn.recv_bytes()
    if not header or header[0] not in (_ARRAYS, _PICKLED):
        raise MalformedFrameError(
            f"header frame of unknown kind {header[:1]!r} (stream out "
            "of sync)"
        )
    return header


def _unpickle_header(header: bytes) -> tuple:
    """A pickled header's ``(skeleton, metas[, clock])``: one that does
    not unpickle, or unpickles to anything else, is a malformed frame."""
    try:
        loaded = closures.loads(header)
    except Exception as exc:  # noqa: BLE001 - whatever the bytes raise
        raise MalformedFrameError(
            f"pickled header does not unpickle ({type(exc).__name__}: {exc})"
        ) from None
    if not (isinstance(loaded, tuple) and len(loaded) in (2, 3)):
        raise MalformedFrameError(
            f"pickled header holds a {type(loaded).__name__}, not a "
            "(skeleton, metadata) pair"
        )
    return loaded


def _recv_pickled(conn, header: bytes) -> tuple[Any, int | None]:
    loaded = _unpickle_header(header)
    try:
        metas = [(np.dtype(d), tuple(map(int, s))) for d, s in loaded[1]]
    except (TypeError, ValueError) as exc:
        raise MalformedFrameError(
            f"header array metadata is malformed ({exc})"
        ) from None
    arrays = [_recv_array(conn, d, s) for d, s in metas]
    return _inflate(loaded[0], arrays), loaded[2] if len(loaded) > 2 else None


def decode(header: bytes, arrays: list[np.ndarray]) -> Any:
    """Rebuild the value from a header and its received array frames."""
    if header[0] == _ARRAYS:
        return {"stage": _fixed(header)[0], "values": list(arrays)}
    skeleton = _unpickle_header(header)[0]
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
    ``None`` when the message carried none (tracing off at the
    sender)."""
    header = _read_header(conn)
    if header[0] == _PICKLED:
        return _recv_pickled(conn, header)
    stage, clock, count = _fixed(header)
    metas = _metas(header[_FIXED.size :], count)
    values = [_recv_array(conn, d, s) for d, s in metas]
    return {"stage": stage, "values": values}, clock


def recv_into(conn, landing) -> int | None:
    """Read one value from the paired stream and land it through
    ``landing`` (the landing protocol, module docstring); returns the
    sender's causal stamp.

    An array message is checked for its stage token and count, then
    read frame by frame into the pairs bound for its metadata — bound
    here on the first message and again whenever the metadata or a
    target's store array changes.  A pickled value, or one whose
    targets cannot be bound, is received whole and handed to
    ``landing.land``.
    """
    header = _read_header(conn)
    if header[0] == _PICKLED:
        value, clock = _recv_pickled(conn, header)
        landing.land(value)
        return clock
    stage, clock, count = _fixed(header)
    landing.check(stage, count)
    meta = header[_FIXED.size :]
    pairs = landing.bound(meta)
    if pairs is None:
        metas = _metas(meta, count)
        pairs = landing.bind(meta, metas)
        if pairs is None:
            values = [_recv_array(conn, d, s) for d, s in metas]
            landing.land({"stage": stage, "values": values})
            return clock
    try:
        for sink, strip in pairs:
            if sink.nbytes:
                conn.recv_bytes_into(sink)
            if strip is not None:
                strip[...] = sink
    except EOFError:
        raise _cut_short() from None
    return clock
