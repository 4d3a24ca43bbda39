"""The per-run observer: what is run-wide about one run's instrumentation.

An :class:`Observer` is created for (at most) one run and threaded
through it: the communicator reports tagged streams, and any layer may
touch :attr:`Observer.registry` metrics.  After the run its
:func:`repro.obs.report.worker_observation` payload is frozen into a
:class:`~repro.obs.report.RunReport` by the one run tail
(:func:`repro.runtime.system.assemble_run_result`), which joins it with
the run's event logs (:mod:`repro.runtime.trace`): what a rank did —
its channel actions (and so how long it sat blocked on each receive),
the spans it opened through ``ctx.span`` and its lifetime — is
recorded there, once, by the rank itself, not here.

Design rules:

* **the null path is** ``None`` — engines and contexts branch on
  ``observer is None`` (not even a method call on the hot path), so an
  un-observed run records nothing and allocates nothing per event.
* **observers never influence execution** — nothing here returns a
  value a process body can see, so instrumented and bare runs compute
  bit-identical results (determinism is the whole subject of the
  reproduced paper; the instruments must not perturb it).
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import MetricsRegistry

__all__ = ["Observer"]


class Observer:
    """Collects what is run-wide about one run's instrumentation.

    Attributes
    ----------
    registry:
        The run's :class:`~repro.obs.metrics.MetricsRegistry`.
    epoch:
        Clock value at observer creation; reports shift timestamps so
        the run starts near zero.

    An observer passed to several runs gives each its own processes
    and spans (they live in that run's event logs); its streams and
    metrics add up across them.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        # (src, dst, tag) -> [messages, bytes]
        self._streams: dict[tuple[int, int, int], list] = {}

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

    # -- frozen views --------------------------------------------------------

    def stream_stats(self) -> dict[tuple[int, int, int], tuple[int, int]]:
        """``(src, dst, tag) -> (messages, bytes)`` for tagged streams."""
        with self._lock:
            return {k: (v[0], v[1]) for k, v in self._streams.items()}
