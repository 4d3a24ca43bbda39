"""Counters, gauges and the metrics registry.

The observability layer keeps its numeric state in a
:class:`MetricsRegistry`: a named collection of

* :class:`Counter` — a monotonically increasing total (messages sent,
  bytes moved, stages executed);
* :class:`Gauge` — a **high-water mark** (buffered envelopes), because
  for capacity questions the peak matters more than the final value.

Two disciplines shape the implementation:

* **thread safety** — the threaded engine's processes update metrics
  concurrently, so every mutation takes the instrument's lock (the
  cooperative engine serialises actions and pays nothing for it);
* **zero cost when off** — a registry belongs to an observer, and code
  that records into one branches on ``observer is None`` first, so an
  un-observed run never touches this module.
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """A named, monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int | float:
        return self._value

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r}: negative increment {amount}"
            )
        with self._lock:
            self._value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self._value})"


class Gauge:
    """A named high-water mark: ``update_max`` raises it, nothing lowers
    it."""

    __slots__ = ("name", "_hwm", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._hwm = 0.0
        self._lock = threading.Lock()

    @property
    def high_water(self) -> int | float:
        return self._hwm

    def update_max(self, value: int | float) -> None:
        with self._lock:
            if value > self._hwm:
                self._hwm = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, hwm={self._hwm})"


class MetricsRegistry:
    """A named collection of counters and gauges.

    ``counter(name)`` / ``gauge(name)`` create on first use and return
    the existing instrument afterwards, so any module can contribute to
    a shared total without coordination.  A name registered as one kind
    cannot be re-registered as the other.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name in self._gauges:
                raise ValueError(f"{name!r} is already a gauge")
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def snapshot(self) -> dict[str, int | float]:
        """All current values, flat: a gauge contributes one
        ``name/hwm`` entry.  Deterministically ordered by name."""
        with self._lock:
            out: dict[str, int | float] = {}
            for name in sorted(self._counters):
                out[name] = self._counters[name].value
            for name in sorted(self._gauges):
                out[f"{name}/hwm"] = self._gauges[name].high_water
            return out
