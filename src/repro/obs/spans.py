"""Timed spans: named intervals on a per-process timeline.

A :class:`Span` is one closed interval of one process's execution — a
program stage, a collective operation, a blocked receive — with a name,
a category, and optional key/value arguments.  The layers above
channels open theirs through a :class:`SpanRecorder`; a blocked
receive's is made at the run tail from the receive's event
(:func:`repro.obs.report.blocked_spans`).  Spans are what the
Chrome trace-event export turns into the bars of a
``chrome://tracing`` / Perfetto timeline (process = the run, thread =
the rank).

Spans may nest (a collective inside a program stage inside the process
lifetime); the recorder tracks the nesting depth per (thread, rank) so
exports and reports can reconstruct the hierarchy without a parent
pointer — the same convention Chrome's ``X`` (complete) events use,
where containment is inferred from interval inclusion.

Timestamps are ``time.perf_counter()`` values (seconds, arbitrary
epoch); reports and exporters subtract the run's epoch so rendered
times start near zero.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "SpanRecorder"]


@dataclass(frozen=True)
class Span:
    """One finished interval of one process.

    ``depth`` is the nesting level at which the span was opened (0 for
    top-level), letting consumers indent or aggregate hierarchically.
    """

    name: str
    cat: str
    rank: int
    t0: float
    t1: float
    depth: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def shifted(self, epoch: float) -> "Span":
        """The same span with timestamps relative to ``epoch``."""
        return Span(
            self.name,
            self.cat,
            self.rank,
            self.t0 - epoch,
            self.t1 - epoch,
            self.depth,
            dict(self.args),
        )


class SpanRecorder:
    """Collects finished spans; hands out context managers to time them.

    Thread-safe: each process thread opens and closes its own spans, and
    the recorder only locks to append to the shared list.  Per-rank
    nesting depth is tracked without a lock because a rank's spans are
    opened and closed by a single thread.
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._depths: dict[int, int] = {}

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @contextmanager
    def span(
        self, rank: int, name: str, cat: str = "phase", **args: Any
    ) -> Iterator[None]:
        """Time a block as a span of process ``rank``."""
        depth = self._depths.get(rank, 0)
        self._depths[rank] = depth + 1
        t0 = self._clock()
        try:
            yield
        finally:
            t1 = self._clock()
            self._depths[rank] = depth
            self.record(Span(name, cat, rank, t0, t1, depth, args))

    @property
    def spans(self) -> list[Span]:
        """All finished spans, ordered by start time."""
        with self._lock:
            return sorted(self._spans, key=lambda s: (s.t0, s.rank))

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
