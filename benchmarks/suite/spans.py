"""Spans recorded by the suite around its calls into each layer.

Spans are kept in memory and written once, at exit, as a Chrome trace
(``chrome://tracing`` / Perfetto ``ph: "X"`` events).  Each carries its
``parent`` and ``workload`` so a layer's self time — its duration minus
what its children cover — can be recomputed from the file alone.  With
``enabled=False`` (every untraced pass) :meth:`Tracer.span` only times
its block and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    count: int  # operations the span covers (calls, jobs, runs)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 1):
        """Time a block; yields its :class:`Span`, whose ``duration`` is
        valid once the block has ended."""
        span = Span(name, time.perf_counter(), 0.0, None, count)
        if self.enabled:
            span.parent = self._stack[-1] if self._stack else None
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def coverage(self, index: int = 0) -> float:
        """Share of span ``index`` covered by its direct children."""
        total = self.spans[index].duration
        covered = sum(s.duration for s in self.children(index))
        return covered / total if total > 0 else 1.0

    def self_times(self) -> dict[str, float]:
        """Seconds of self time (duration minus children) by span name."""
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            own = s.duration - sum(c.duration for c in self.children(i))
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def write_chrome(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "args": {
                    "id": i,
                    "parent": s.parent,
                    "workload": self.workload,
                    "count": s.count,
                },
            }
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
            + "\n"
        )
