"""Runtime observability: metrics, run reports, trace export.

The paper's subject is what happens *inside* an execution —
interleavings, channel traffic, blocking receives — and this package is
the instrumentation that makes those things measurable:

* :mod:`~repro.obs.metrics` — counters, gauges with high-water marks,
  and the :class:`MetricsRegistry` that holds them;
* :mod:`~repro.obs.observer` — the per-run :class:`Observer`: what is
  run-wide (the metrics registry, the communicator's tagged streams,
  the epoch);
* :mod:`~repro.obs.report` — the frozen :class:`RunReport`: per-process
  compute/blocked wall time, per-channel traffic and queue high-water
  marks, the rank × rank communication matrix, per-tag streams,
  :class:`Span` intervals and metrics, rendered as tables (what a rank
  did — its channel actions and so its blocked time, its spans, its
  lifetime — is read from its event log, :mod:`repro.runtime.trace`);
* :mod:`~repro.obs.export` — JSONL event log (lossless round trip) and
  Chrome trace-event JSON for ``chrome://tracing`` / Perfetto;
* :mod:`~repro.obs.validate` — measured traffic vs
  :mod:`repro.perfmodel` predictions (closing the loop on E3/E4).

Instrumentation is **off by default and free when off**: engines take a
``None`` observer and branch past every hook, and ``ctx.span`` hands
back one shared no-op.  Enable it per run::

    from repro.obs import Observer
    from repro.runtime import ThreadedEngine

    result = ThreadedEngine(observe=True).run(system)
    print(result.report.summary())

or pass an :class:`Observer` instance to share one across layers.
"""

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.report import (
    ProcessTimes,
    RunReport,
    Span,
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
    # and refinement layers, which themselves import the runtime).
    # Loading it lazily keeps ``import repro.obs`` from importing every
    # layer above the runtime.
    if name in ("ModelComparison", "fdtd_model_comparison"):
        from repro.obs import validate

        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "Observer",
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
