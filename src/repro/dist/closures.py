"""Value-pickling for dynamic functions (closures and lambdas).

The mechanical transform (:mod:`repro.refinement.transform`) and the
mesh skeleton build process bodies out of *closures* — functions
created at run time that capture per-rank data in cells.  Standard
pickle serialises functions by reference (module + qualname), which
fails for anything defined inside another function, so such bodies
cannot cross a ``spawn`` process boundary unaided.

This module extends pickle with value-serialisation for exactly the
objects standard pickle refuses:

* **dynamic functions** — the code object travels via :mod:`marshal`
  (both ends run the same interpreter: ``spawn`` re-executes
  ``sys.executable``), the globals are re-bound by re-importing the
  defining module in the worker, and defaults/kwdefaults/closure/dict
  are carried along;
* **closure cells** — created empty and filled through a deferred
  state setter, so cyclic references (a function reachable from its
  own closure) resolve through pickle's memo.

Everything standard pickle *can* handle — module-level functions,
classes, NumPy arrays, nested data — is delegated to it untouched, so
the worker side needs nothing but :func:`pickle.loads` (the rebuild
helpers here are ordinary module-level functions, picklable by
reference).

**Program images.**  Pickling a refined program's bodies walks closure
graphs of hundreds of kilobytes, and a served or benchmarked
:class:`~repro.runtime.system.System` is dispatched many times
unchanged.  :func:`body_payloads` therefore pickles each rank's body
once per ``System`` and hands every later dispatch the same bytes under
the same digest, which is what lets a long-lived worker keep the
*unpickled* body resident between runs
(:class:`repro.dist.worker.ResidentImages`; see
:class:`~repro.runtime.process.ProcessSpec` for the contract on bodies
this relies on).
"""

from __future__ import annotations

import hashlib
import importlib
import io
import marshal
import pickle
import threading
import types
import weakref

__all__ = [
    "ClosurePickler",
    "body_images",
    "body_payloads",
    "dumps",
    "loads",
]

#: Protocol 5 is required for the six-element reduce form (deferred
#: state setter) used to fill closure cells after creation.
PROTOCOL = 5


def _module_globals(module: str | None) -> dict:
    """The globals dict a rebuilt function should close over.

    Re-importing the defining module gives the function the same view
    of module state a fresh process would have built anyway.  When the
    module cannot be imported (functions defined in ``exec`` blocks or
    interactive snippets), fall back to a minimal namespace — such
    functions must then be self-contained, importing what they need
    inside their own body.
    """
    if module:
        try:
            return importlib.import_module(module).__dict__
        except Exception:
            pass
    import builtins

    return {"__name__": module or "<dynamic>", "__builtins__": builtins}


def _make_function(
    code_bytes: bytes,
    module: str | None,
    name: str,
    qualname: str,
    defaults: tuple | None,
    kwdefaults: dict | None,
    closure: tuple | None,
    fn_dict: dict | None,
):
    """Rebuild a dynamic function in the receiving process."""
    code = marshal.loads(code_bytes)
    fn = types.FunctionType(code, _module_globals(module), name, defaults, closure)
    fn.__qualname__ = qualname
    fn.__module__ = module
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    if fn_dict:
        fn.__dict__.update(fn_dict)
    return fn


def _make_cell() -> types.CellType:
    return types.CellType()


def _set_cell(cell: types.CellType, state: tuple) -> None:
    has_contents, contents = state
    if has_contents:
        cell.cell_contents = contents


def _resolves_to_self(fn: types.FunctionType) -> bool:
    """True iff reference pickling (module + qualname) would work."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        return False
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except Exception:
        return False
    return obj is fn


class ClosurePickler(pickle.Pickler):
    """A pickler that additionally serialises dynamic functions by value."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType) and not _resolves_to_self(obj):
            return self._reduce_dynamic_function(obj)
        if isinstance(obj, types.CellType):
            try:
                state = (True, obj.cell_contents)
            except ValueError:  # empty cell
                state = (False, None)
            # Deferred state: the cell is created (and memoised) empty,
            # then filled — cycles through a closure resolve cleanly.
            return (_make_cell, (), state, None, None, _set_cell)
        return NotImplemented

    @staticmethod
    def _reduce_dynamic_function(fn: types.FunctionType):
        return (
            _make_function,
            (
                marshal.dumps(fn.__code__),
                fn.__module__,
                fn.__name__,
                fn.__qualname__,
                fn.__defaults__,
                fn.__kwdefaults__,
                fn.__closure__,
                fn.__dict__ or None,
            ),
        )


def dumps(obj) -> bytes:
    """Serialise ``obj``, closures and all."""
    buffer = io.BytesIO()
    ClosurePickler(buffer, protocol=PROTOCOL).dump(obj)
    return buffer.getvalue()


#: Deserialisation needs no special machinery: the rebuild helpers are
#: importable module-level functions.
loads = pickle.loads


#: ``System`` -> ``[(body, payload), ...]`` by rank.  Weak on the system,
#: so an entry lives exactly as long as the program it describes.
_images: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_images_lock = threading.Lock()  # job servers prepare jobs on many threads


def body_payloads(system) -> list[tuple]:
    """Each rank's body as the ``("image", digest, image)`` payload a
    job carries, pickled and digested once per ``System``.

    The first dispatch of a system pays :func:`dumps` and one hash per
    rank; every later one — the serving case — is a dictionary lookup.
    An entry is revalidated by identity (``spec.body is cached_body``),
    so rebinding a :class:`~repro.runtime.process.ProcessSpec`'s
    ``body`` re-pickles that rank, and it dies with its ``System``.
    Equal digests mean equal bytes, so a worker may run any body it
    already unpickled from them in place of unpickling again.
    """
    with _images_lock:
        cached = _images.get(system, ())
    fresh = [
        cached[rank]
        if rank < len(cached) and cached[rank][0] is spec.body
        else (spec.body, _payload(spec.body))
        for rank, spec in enumerate(system.processes)
    ]
    with _images_lock:
        _images[system] = fresh
    return [payload for _body, payload in fresh]


def _payload(body) -> tuple:
    image = dumps(body)
    return ("image", hashlib.blake2b(image, digest_size=16).digest(), image)


def body_images(system) -> list[bytes]:
    """The pickled bytes of :func:`body_payloads`, by rank."""
    return [image for _kind, _digest, image in body_payloads(system)]
