"""The per-run observer: the single collection point for instrumentation.

An :class:`Observer` is created for (at most) one run and threaded
through it: engines call the lifecycle hooks, the
communicator reports tagged streams, and any layer may open
:meth:`Observer.span` intervals or touch :attr:`Observer.registry`
metrics.  After the run its :func:`repro.obs.report.worker_observation`
payload is frozen into a :class:`~repro.obs.report.RunReport` by the
one run tail (:func:`repro.runtime.system.assemble_run_result`), which
joins it with the run's event log (:mod:`repro.runtime.trace`): what a
rank did with its channels — and so how long it sat blocked on each
receive — is recorded there, once, not here.

Design rules:

* **the null path is** ``None`` **or** :data:`NULL_OBSERVER` — engines
  branch on ``observer is None`` (not even a method call on the hot
  path); library layers that prefer unconditional calls hold
  :data:`NULL_OBSERVER`, whose hooks are empty and whose ``span`` is a
  shared no-op context manager.  Either way an un-observed run records
  nothing and allocates nothing per event.
* **observers never influence execution** — no hook returns a value a
  process body can see, so instrumented and bare runs compute
  bit-identical results (determinism is the whole subject of the
  reproduced paper; the instruments must not perturb it).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.spans import SpanRecorder

__all__ = ["Observer", "NullObserver", "NULL_OBSERVER", "observer_of"]


class Observer:
    """Collects one run's instrumentation.

    Attributes
    ----------
    registry:
        The run's :class:`~repro.obs.metrics.MetricsRegistry`.
    spans:
        The run's :class:`~repro.obs.spans.SpanRecorder`.
    epoch:
        Clock value at observer creation; reports shift timestamps so
        the run starts near zero.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.epoch = clock()
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(clock)
        self._lock = threading.Lock()
        # rank -> [name, start, wall]
        self._procs: dict[int, list] = {}
        # (src, dst, tag) -> [messages, bytes]
        self._streams: dict[tuple[int, int, int], list] = {}

    # -- engine lifecycle hooks ---------------------------------------------

    def process_started(self, rank: int, name: str = "") -> None:
        with self._lock:
            self._procs[rank] = [name or f"P{rank}", self.clock(), 0.0]

    def process_finished(self, rank: int) -> None:
        now = self.clock()
        with self._lock:
            entry = self._procs.get(rank)
            if entry is not None:
                entry[2] = now - entry[1]

    # -- communicator hook ---------------------------------------------------

    def message(self, src: int, dst: int, tag: int, nbytes: int) -> None:
        """One tagged logical message (communicator layer)."""
        key = (src, dst, tag)
        with self._lock:
            entry = self._streams.get(key)
            if entry is None:
                self._streams[key] = [1, nbytes]
            else:
                entry[0] += 1
                entry[1] += nbytes

    # -- spans ---------------------------------------------------------------

    def span(self, rank: int, name: str, cat: str = "phase", **args: Any):
        """Context manager timing a block as a span of ``rank``."""
        return self.spans.span(rank, name, cat, **args)

    # -- frozen views --------------------------------------------------------

    def process_times(self) -> dict[int, tuple[str, float]]:
        """``rank -> (name, wall)`` for every observed process.

        A process still running (finish hook not yet called) reports its
        wall time as elapsed-so-far.
        """
        now = self.clock()
        with self._lock:
            return {
                rank: (name, wall if wall else now - start)
                for rank, (name, start, wall) in self._procs.items()
            }

    def stream_stats(self) -> dict[tuple[int, int, int], tuple[int, int]]:
        """``(src, dst, tag) -> (messages, bytes)`` for tagged streams."""
        with self._lock:
            return {k: (v[0], v[1]) for k, v in self._streams.items()}


_NULL_CM = nullcontext()


class NullObserver(Observer):
    """An observer that records nothing, at (almost) no cost.

    Holds the shared :data:`~repro.obs.metrics.NULL_REGISTRY`; its
    ``span`` returns one shared no-op context manager, so layers like
    the collectives can instrument unconditionally.
    """

    enabled = False

    def __init__(self) -> None:  # deliberately does not call super()
        self.clock = time.perf_counter
        self.epoch = 0.0
        self.registry = NULL_REGISTRY
        self.spans = SpanRecorder(time.perf_counter)

    def process_started(self, rank: int, name: str = "") -> None:
        pass

    def process_finished(self, rank: int) -> None:
        pass

    def message(self, src: int, dst: int, tag: int, nbytes: int) -> None:
        pass

    def span(self, rank: int, name: str, cat: str = "phase", **args: Any):
        return _NULL_CM

    def process_times(self) -> dict[int, tuple[str, float]]:
        return {}

    def stream_stats(self) -> dict[tuple[int, int, int], tuple[int, int]]:
        return {}


#: Shared no-op observer (safe to use from any number of runs).
NULL_OBSERVER = NullObserver()


def observer_of(ctx: Any) -> Observer:
    """The observer attached to a process context, or the null observer.

    Library layers built on :class:`~repro.runtime.context.ProcessContext`
    (communicator, collectives, archetype routines) use this to record
    unconditionally without knowing whether the run is observed.
    """
    obs = getattr(ctx, "observer", None)
    return obs if obs is not None else NULL_OBSERVER
