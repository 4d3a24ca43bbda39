"""Runtime observability: metrics, timed spans, run reports, trace export.

The paper's subject is what happens *inside* an execution —
interleavings, channel traffic, blocking receives — and this package is
the instrumentation that makes those things measurable:

* :mod:`~repro.obs.metrics` — counters, gauges with high-water marks,
  and the :class:`MetricsRegistry` that holds them (plus no-op variants
  for the instrumentation-off path);
* :mod:`~repro.obs.spans` — :class:`Span` intervals and the recorder
  that times them;
* :mod:`~repro.obs.observer` — the per-run :class:`Observer` the
  engines, communicator and archetype layers report into;
* :mod:`~repro.obs.report` — the frozen :class:`RunReport`: per-process
  compute/blocked wall time, per-channel traffic and queue high-water
  marks, the rank × rank communication matrix, per-tag streams, spans
  and metrics, rendered as tables (what a rank did with its channels,
  and so its blocked time, is read from the run's one event log,
  :mod:`repro.runtime.trace`);
* :mod:`~repro.obs.export` — JSONL event log (lossless round trip) and
  Chrome trace-event JSON for ``chrome://tracing`` / Perfetto;
* :mod:`~repro.obs.validate` — measured traffic vs
  :mod:`repro.perfmodel` predictions (closing the loop on E3/E4).

Instrumentation is **off by default and free when off**: engines take a
``None`` observer and branch past every hook; layers that prefer
unconditional calls use :data:`NULL_OBSERVER`.  Enable it per run::

    from repro.obs import Observer
    from repro.runtime import ThreadedEngine

    result = ThreadedEngine(observe=True).run(system)
    print(result.report.summary())

or pass an :class:`Observer` instance to share one across layers.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.spans import Span, SpanRecorder
from repro.obs.observer import (
    Observer,
    NullObserver,
    NULL_OBSERVER,
    observer_of,
)
from repro.obs.report import (
    ProcessTimes,
    RunReport,
    StreamTraffic,
)
from repro.obs.export import (
    chrome_trace_dict,
    read_chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def __getattr__(name: str):
    # validate pulls in repro.perfmodel (and through it the archetype
    # and refinement layers, which themselves import the runtime — and
    # the runtime's collectives import this package).  Loading it
    # lazily keeps ``from repro.obs import fdtd_model_comparison``
    # working without closing that cycle at import time.
    if name in ("ModelComparison", "fdtd_model_comparison"):
        from repro.obs import validate

        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Span",
    "SpanRecorder",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "observer_of",
    "ProcessTimes",
    "RunReport",
    "StreamTraffic",
    "chrome_trace_dict",
    "read_chrome_trace",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "ModelComparison",
    "fdtd_model_comparison",
]
