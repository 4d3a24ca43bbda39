"""Shared-memory backing for process stores.

**Stores cross as packs.**  A rank's store reaches its worker through at
most two ``multiprocessing.shared_memory`` segments, whatever it holds:

* its *constants* — read-only arrays, :func:`repro.util.is_constant`;
  in the FDTD codes the twelve coefficient arrays, two thirds of the
  data — lie back to back in one **resident pack**, written the first
  time those arrays reach an arena and never again.  The pack lives
  exactly as long as the arrays do (hence as long as their ``System``):
  the arena holds them through weak references only, and gives the
  segment back to its free list at the first :meth:`~SharedStoreArena.
  share_store` or :meth:`~SharedStoreArena.cleanup` after one of them
  died.  Concurrent jobs of one ``System`` share one resident pack —
  safe precisely because nobody can write it;
* its *variables* lie in one **run pack**, drawn from the arena's
  size-keyed free list and written at setup.  Readback copies nothing
  out of it: the result's variables are views into the pack, which is
  *lent* to them — held through a weak reference to the views' common
  base, and given back to the free list by the first
  :meth:`~SharedStoreArena.share_store` after the last of them died.

So one rule covers both kinds of pack: a pack lives exactly as long as
the arrays that view it — the ``System``'s constants, or a result's
variables.

A pool worker maps a segment the first time a plan names it and keeps
the mapping for as long as it lives (:func:`attach_store`): a later run
handed the same pack builds its views from the kept mapping — no
``shm_open``, no ``mmap``, no page faulted in a second time — and runs
its body *in place*.  Views of the resident pack are marked read-only,
so a body that assigns a constant fails there exactly as it does on the
in-process engines.  Everything else (small arrays, scalars, objects)
rides the job's pickle.

Ownership and lifecycle are deliberately asymmetric:

* the **parent** creates every segment inside a
  :class:`SharedStoreArena` and is the only unlinker —
  :meth:`SharedStoreArena.cleanup` runs in a ``finally`` around the
  run, so segments are reclaimed even when a worker crashed mid-step.
  A pack still lent to a live result is unlinked with the rest and
  closed when its last view dies (the views hold it, :class:`_Lease`),
  so a result may outlive its pool;
* **workers** hold mappings, not descriptors: :func:`map_segment`
  closes the fd as soon as the segment is mapped, never unlinks, and
  tells the ``resource_tracker`` nothing — the parent is each
  segment's sole owner.  A kept mapping can only show a worker the
  pack it was dispatched with: the arena hands each run pack to one
  run at a time and unlinks no segment while its pool lives.

A module-level registry (:func:`live_segment_names`) records which
segment names this process has created and not yet unlinked; the leak
tests assert it is empty after both clean and crashing runs.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import weakref
from multiprocessing import shared_memory
from typing import Any, Iterable, NamedTuple

import _posixshmem
import numpy as np

from repro.util import is_constant

__all__ = [
    "DEFAULT_THRESHOLD",
    "BY_VALUE_CONSTANT",
    "SharedStoreArena",
    "attach_store",
    "by_value_constants",
    "flush_store",
    "live_segment_names",
    "map_segment",
]

#: Arrays below this many bytes ride in the worker bootstrap pickle
#: instead of a pack (tiny scalars are not worth a cache line of one).
DEFAULT_THRESHOLD = 256

#: Every array in a pack starts on a multiple of this many bytes: a
#: cache line, and enough for any SIMD load the kernels' ufuncs issue.
PACK_ALIGN = 64

#: The plan entry of a constant that sits in ``rest`` instead of a pack:
#: one too small for a pack or not of a raw-buffer dtype, which crossed
#: in the job's pickle, or — in a worker daemon, which maps no segment —
#: one of the daemon's resident constants
#: (:class:`repro.dist.worker.ResidentConstants`), which did not cross
#: at all this run.  Nothing to map, only the read-only flag to restore
#: (neither pickling nor the wire carries it) and the array to remember,
#: so that :func:`flush_store` does not send it home.
BY_VALUE_CONSTANT = (None, 0, None, None, True)

#: ``mmap(2)`` / ``munmap(2)``, for :func:`map_segment`, and the
#: former's failure value.
_libc = ctypes.CDLL(None, use_errno=True)
_libc.mmap.restype = ctypes.c_void_p
_libc.mmap.argtypes = (
    ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
    ctypes.c_int, ctypes.c_long,
)
_libc.munmap.restype = ctypes.c_int
_libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
_MAP_FAILED = ctypes.c_void_p(-1).value

#: Segment names created by this process and not yet unlinked.
_LIVE_SEGMENTS: set[str] = set()


def live_segment_names() -> frozenset[str]:
    """Names of shared segments this process currently owns."""
    return frozenset(_LIVE_SEGMENTS)


def _shareable(value: Any, threshold: int) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind in "biufcSU"
        and value.dtype.names is None
        and value.nbytes >= threshold
    )


def _pack_offsets(arrays: Iterable[np.ndarray]) -> tuple[list[int], int]:
    """Back-to-back, :data:`PACK_ALIGN`-aligned offsets and their end."""
    offsets, end = [], 0
    for arr in arrays:
        offsets.append(end)
        end += -(-arr.nbytes // PACK_ALIGN) * PACK_ALIGN
    return offsets, end


class _ResidentPack(NamedTuple):
    """One store's constants in one segment, plus what finds them again:
    the plan entries handed out for them and a weak reference to each
    array (so :meth:`SharedStoreArena.readback` can return the parent's
    own, and so the pack dies with them)."""

    seg: shared_memory.SharedMemory
    key: tuple
    plan: dict[str, tuple]
    refs: dict[str, weakref.ref]

    def in_use(self) -> bool:
        return all(ref() is not None for ref in self.refs.values())


class _Lease(np.ndarray):
    """A lent run pack as one byte array: the base of every array
    :meth:`SharedStoreArena.readback` returns from it (NumPy collapses a
    view's base to it, however the view was sliced), so it dies with
    the last of them.  It holds the segment, which therefore cannot be
    closed under a live view: an arena cleaned up while a result is
    still held leaves the closing to the lease's death."""

    __slots__ = ("seg",)


class _Loan(NamedTuple):
    """A run pack lent to a result, and a weak reference to its lease."""

    seg: shared_memory.SharedMemory
    lease: weakref.ref

    def in_use(self) -> bool:
        return self.lease() is not None


class SharedStoreArena:
    """Parent-side owner of every shared segment backing its runs.

    :meth:`share_store` turns one rank's store into a *plan* — per
    shared key ``(segment, offset, dtype, shape, constant)`` — over two
    packs (module docstring) plus the by-value remainder;
    :meth:`readback` turns a plan back into arrays after the run.

    A pool keeps one arena alive across runs.  A run pack is
    *in use* from :meth:`share_store` until :meth:`readback` lends it to
    the result, and lent until the result's arrays die; the next
    :meth:`share_store` then parks it on a size-keyed free list instead
    of unlinking it, and :meth:`_new_segment` satisfies a later request
    of the same size from that list — so repeated runs over matching
    grid shapes reuse their segments (and fds, mappings and page tables
    — the workers' too, which keep theirs) instead of re-creating them.
    A resident pack is parked by the same sweep, once one of its arrays
    died.  :meth:`recycle` parks run packs that
    were shared and never read back (a failed run's).  :meth:`cleanup`
    remains the only unlinker, reclaiming every segment alike.

    Not thread-safe: a pool serialises its callers with
    :attr:`~repro.dist.pool.WorkerPool.arena_lock`.  The one thing
    that may happen on any thread at any time is a constant array or a
    lease being collected; its weak-reference callback only appends the
    pack's name to a list (no lock — the collector may run it on a
    thread that holds the arena lock already), and the next
    :meth:`share_store` or :meth:`cleanup` does the releasing.
    """

    def __init__(self, tag: str = ""):
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        #: resident packs by segment name, and by what they hold
        self._resident: dict[str, _ResidentPack] = {}
        self._resident_of: dict[tuple, _ResidentPack] = {}
        #: run packs lent to results, by segment name
        self._lent: dict[str, _Loan] = {}
        #: names of resident or lent packs whose arrays (some) have died
        self._dead: list[str] = []
        self._counter = 0
        # Counted, so tests need not time anything:
        self.created = 0  # segments created (not served from the free list)
        self.recycled = 0  # segments served from the free list
        self.constant_bytes = 0  # bytes written into resident packs
        self._tag = tag or f"{os.getpid():x}_{os.urandom(4).hex()}"

    def __len__(self) -> int:
        """Packs in use: run packs not yet read back, and resident or
        lent packs whose arrays are all alive — one whose arrays died
        is not in use, swept or not."""
        packs = (*self._resident.values(), *self._lent.values())
        return len(self._segments) + sum(pack.in_use() for pack in packs)

    # -- creation ----------------------------------------------------------

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        size = max(1, nbytes)
        bucket = self._free.get(size)
        if bucket:
            seg = bucket.pop()
            self._segments[seg.name] = seg
            self.recycled += 1
            return seg
        name = f"repro_{self._tag}_{self._counter}"
        self._counter += 1
        seg = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._segments[name] = seg
        _LIVE_SEGMENTS.add(name)
        self.created += 1
        return seg

    def _write_pack(
        self, arrays: dict[str, np.ndarray], constant: bool
    ) -> tuple[shared_memory.SharedMemory, dict[str, tuple]]:
        """Copy ``arrays`` back to back into one segment; the segment
        and the plan entry of each."""
        offsets, end = _pack_offsets(arrays.values())
        seg = self._new_segment(end)
        plan: dict[str, tuple] = {}
        for (key, arr), offset in zip(arrays.items(), offsets):
            if arr.nbytes:
                # Element-wise into a C-ordered view: any input layout.
                np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=offset
                )[...] = arr
            plan[key] = (seg.name, offset, arr.dtype.str, arr.shape, constant)
        return seg, plan

    def _resident_pack(self, arrays: dict[str, np.ndarray]) -> _ResidentPack:
        """The resident pack holding exactly ``arrays``, written now if
        this arena has not seen them before.  Keyed by identity: the
        sweep has just released every pack with a dead array, so an
        ``id`` that matches belongs to the very array that was packed."""
        key = tuple((name, id(arr)) for name, arr in arrays.items())
        pack = self._resident_of.get(key)
        if pack is None:
            seg, plan = self._write_pack(arrays, constant=True)
            del self._segments[seg.name]  # not recyclable: see recycle()
            died = self._dead.append
            refs = {
                name: weakref.ref(arr, lambda _ref, _n=seg.name: died(_n))
                for name, arr in arrays.items()
            }
            pack = _ResidentPack(seg, key, plan, refs)
            self._resident[seg.name] = self._resident_of[key] = pack
            self.constant_bytes += sum(a.nbytes for a in arrays.values())
        return pack

    def _sweep(self) -> None:
        """Park every resident or lent pack one of whose arrays has
        died.  A noted name is checked again, not trusted: the segment
        may have been parked and handed out anew since its note."""
        while self._dead:
            name = self._dead.pop()
            resident = self._resident.get(name)
            pack = resident or self._lent.get(name)
            if pack is None or pack.in_use():
                continue
            if resident:
                del self._resident[name], self._resident_of[resident.key]
            else:
                del self._lent[name]
            self._free.setdefault(pack.seg.size, []).append(pack.seg)

    def share_store(
        self, store: dict[str, Any], threshold: int = DEFAULT_THRESHOLD
    ) -> tuple[dict[str, tuple], dict[str, Any]]:
        """Split one rank's store into ``(plan, rest)``.

        ``plan`` maps each shared key to ``(segment, offset, dtype,
        shape, constant)``: shareable constants in the resident pack
        (found, or written now), shareable variables in a fresh run
        pack.  ``rest`` holds every other value, to cross by value; a
        constant among them is listed in ``plan`` as
        :data:`BY_VALUE_CONSTANT` so the worker can restore its flag.
        """
        self._sweep()
        plan: dict[str, tuple] = {}
        rest: dict[str, Any] = {}
        constants: dict[str, np.ndarray] = {}
        variables: dict[str, np.ndarray] = {}
        for key, value in store.items():
            if not _shareable(value, threshold):
                rest[key] = value
                if is_constant(value):
                    plan[key] = BY_VALUE_CONSTANT
            elif is_constant(value):
                constants[key] = value
            else:
                variables[key] = value
        if constants:
            plan.update(self._resident_pack(constants).plan)
        if variables:
            plan.update(self._write_pack(variables, constant=False)[1])
        return plan, rest

    # -- readback and teardown ---------------------------------------------

    def readback(self, plan: dict[str, tuple]) -> dict[str, np.ndarray]:
        """A rank's shared arrays after its run, once every rank is
        terminal: variables as views into the run pack, which is lent to
        them from now on (:meth:`_lend`), constants as *the parent's own
        arrays* — nobody could write them, so there is nothing to copy.
        (The caller holds the store it shared, so they are alive.)
        By-value constants lie in no pack and do not come home either:
        the caller takes them from the ``rest`` it shared
        (:func:`by_value_constants`)."""
        out: dict[str, np.ndarray] = {}
        for key, (name, offset, dtype_str, shape, constant) in plan.items():
            if name is None:
                continue
            if constant:
                out[key] = self._resident[name].refs[key]()
            else:
                out[key] = np.ndarray(
                    shape,
                    dtype=np.dtype(dtype_str),
                    buffer=self._lend(name),
                    offset=offset,
                )
        return out

    def _lend(self, name: str) -> _Lease:
        """The lease on run pack ``name``: the live one if the pack is
        lent already, else a new one — the pack leaves the in-use set
        and its lease's death notes the name for the sweep."""
        seg = self._segments.pop(name, None)
        if seg is None:
            seg, ref = self._lent[name]
            lease = ref()
            if lease is not None:
                return lease
        lease = _Lease((seg.size,), np.uint8, buffer=seg.buf)
        lease.seg = seg
        died = self._dead.append
        self._lent[name] = _Loan(
            seg, weakref.ref(lease, lambda _ref, _n=name: died(_n))
        )
        return lease

    def recycle(self, names: "Iterable[str] | None" = None) -> None:
        """Park in-use run packs on the size-keyed free list: the
        segments stay mapped and owned (still counted by
        :func:`live_segment_names`), ready for same-size reuse.

        In use means shared and not read back — a run that failed
        lends nothing, and its caller recycles its packs once every
        rank is terminal.  ``names=None`` parks every such pack; an
        explicit collection parks only those, while other runs' packs
        stay live.  Resident and lent packs are never parked here,
        named or not — the sweep parks them once their arrays died —
        and other unknown names are ignored too (the run may have
        failed before sharing anything).
        """
        for name in list(self._segments) if names is None else names:
            seg = self._segments.pop(name, None)
            if seg is not None:
                self._free.setdefault(seg.size, []).append(seg)

    def cleanup(self) -> None:
        """Unlink every segment at once and close it — except one still
        lent to live arrays, whose lease closes it when the last of them
        dies.  Idempotent, crash-tolerant."""
        viewed = {name for name, loan in self._lent.items() if loan.in_use()}
        segments = [
            *self._segments.values(),
            *(pack.seg for pack in self._resident.values()),
            *(loan.seg for loan in self._lent.values()),
            *(seg for bucket in self._free.values() for seg in bucket),
        ]
        self._segments.clear()
        self._resident.clear()
        self._resident_of.clear()
        self._lent.clear()
        self._free.clear()
        del self._dead[:]
        for seg in segments:
            if seg.name not in viewed:
                try:
                    seg.close()
                except Exception:
                    pass
            try:
                seg.unlink()
            except Exception:
                pass
            _LIVE_SEGMENTS.discard(seg.name)


def by_value_constants(
    plan: dict[str, tuple], rest: dict[str, Any]
) -> dict[str, np.ndarray]:
    """The parent's own arrays for the constants of ``plan`` that
    crossed inside ``rest``: like the packed ones
    (:meth:`SharedStoreArena.readback`), a worker does not send them
    back unless it rebound them."""
    return {key: rest[key] for key, entry in plan.items() if entry[0] is None}


# -- worker side --------------------------------------------------------------


def map_segment(name: str) -> ctypes.Array:
    """Map segment ``name`` read-write as one byte buffer, unmapped when
    the buffer and every view of it have died, and close its descriptor
    at once: the mapping alone keeps the memory reachable.
    (``mmap.mmap`` would keep a duplicate of the descriptor for as long
    as the mapping lives, hence ``mmap(2)`` itself.)  Nothing is sent to
    the resource tracker — the parent that created the segment is its
    sole owner and the only one to unlink it."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR)
    try:
        size = os.fstat(fd).st_size
        addr = _libc.mmap(
            None, size, mmap.PROT_READ | mmap.PROT_WRITE, mmap.MAP_SHARED, fd, 0
        )
    finally:
        os.close(fd)
    if addr == _MAP_FAILED:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err), name)
    buf = (ctypes.c_char * size).from_address(addr)
    weakref.finalize(buf, _libc.munmap, addr, size)
    return buf


def attach_store(
    plan: dict[str, tuple],
    rest: dict[str, Any],
    mapped: dict[str, ctypes.Array] | None,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Build a live store from an attach plan plus the by-value remainder.

    ``mapped`` is the caller's table of kept mappings, by segment name:
    a segment the plan names is mapped (:func:`map_segment`) and entered
    there the first time, and every later plan naming it builds its
    views from that mapping.  Nothing is ever unmapped here.  (A worker
    daemon, whose plans name no segment, passes ``None``.)  Views of
    constants are marked read-only, and so are the constants the plan
    lists as :data:`BY_VALUE_CONSTANT`, which are taken from ``rest``.
    ``rest`` values are stored *as received*, not copied: the caller has
    just unpickled them (a pool worker), decoded them off the wire or
    found them in its resident table (a daemon), so they are fresh
    objects nothing else refers to, or constants nobody can write — a
    copy would only be a second allocation of the whole store on the
    socket path.

    Returns ``(store, handles)`` where ``handles`` maps every planned
    key to the array it starts the run as: the entries the parent can
    restore without being sent anything, which is what
    :func:`flush_store` needs to know.
    """
    store: dict[str, Any] = {}
    handles: dict[str, np.ndarray] = {}
    for key, (name, offset, dtype_str, shape, constant) in plan.items():
        if name is None:
            arr = rest[key]
        else:
            buf = mapped.get(name)
            if buf is None:
                buf = mapped[name] = map_segment(name)
            arr = np.ndarray(
                shape, dtype=np.dtype(dtype_str), buffer=buf, offset=offset
            )
        if constant:
            arr.flags.writeable = False
        handles[key] = store[key] = arr
    for key, value in rest.items():
        store.setdefault(key, value)
    return store, handles


def flush_store(
    store: dict[str, Any], handles: dict[str, np.ndarray]
) -> dict[str, Any]:
    """Reconcile a finished store with what the parent already holds.

    An entry still bound to the array it started as needs nothing: an
    in-place mutation of a shm-backed variable is in the run pack
    already, and a constant — in the resident pack or by value — could
    not have been written, so the parent puts its own array into the
    result.  An entry *rebound* to a new array of the same shape/dtype
    is copied back into its segment — unless it was a constant, whose
    read-only view (and the resident pack behind it, shared with every
    other run of the ``System``) is never written through; that
    rebinding, any other, and every entry the plan did not name (the
    by-value variables: on a daemon, all of them) are returned as
    overrides for the parent to apply on top.
    """
    overrides: dict[str, Any] = {}
    for key, value in store.items():
        arr = handles.get(key)
        if arr is None:
            overrides[key] = value
            continue
        if value is arr:
            continue
        if (
            arr.flags.writeable
            and isinstance(value, np.ndarray)
            and value.shape == arr.shape
            and value.dtype == arr.dtype
        ):
            arr[...] = value
        else:
            overrides[key] = value
    return overrides
