"""The free-running threaded engine: the "real parallel" execution.

Each process body runs on its own OS thread; channels are thread-safe
FIFO queues; receives block.  The OS scheduler provides the "fair
interleaving of actions from processes" of the paper's model (section
3.1, item 4) — which particular interleaving occurs is outside our
control, and that is the point: Theorem 1 says it does not matter.

Practical deviations from the idealised model, handled explicitly:

* when a process terminates, the channels it writes are *closed*; a
  reader blocked on a closed empty channel receives
  :class:`~repro.errors.EmptyChannelError` instead of hanging forever,
  so most real deadlocks surface as diagnosable failures;
* an optional ``recv_timeout`` bounds every blocking receive, turning
  any remaining hang into an error;
* a body that raises is reported as
  :class:`~repro.errors.ProcessFailedError` after all threads have been
  reaped.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import wrap_process_failure
from repro.runtime.channel import Channel
from repro.runtime.system import RunResult, RunState, System
from repro.runtime.trace import Trace

__all__ = ["ThreadedEngine"]


class _ThreadedExecutor:
    """Performs actions immediately; optionally records them.

    Trace recording takes a lock (the trace list is shared); per-channel
    sequence numbers are race-free without extra locking because each
    channel has exactly one writer and one reader.  With an observer
    attached, each receive's blocked interval is timed; without one
    (the default) no clock is ever read.
    """

    def __init__(self, trace: Trace | None, recv_timeout: float | None):
        self._trace = trace
        self._lock = threading.Lock()
        self._recv_timeout = recv_timeout
        #: The run's observer, or ``None``; set by ``RunState``.
        self.observer = None
        #: Per-rank :class:`~repro.obs.causal.CausalRecorder` list, or
        #: ``None``; set by ``RunState``.  In-process channels move
        #: references rather than wire frames, so the Lamport stamp
        #: travels out-of-band: a shared ``(channel, seq) -> clock``
        #: table, written by the sender *before* the value is enqueued
        #: (so it is always present by the time the matching receive
        #: can complete).
        self.causal = None
        self._sent_clocks: dict[tuple[str, int], int] = {}

    def exec_send(self, rank: int, channel: Channel, value: Any) -> None:
        if self.causal is not None:
            # SRSW: this thread is the only sender, so ``sends`` is the
            # seq the send below will return.
            stamp = self.causal[rank].on_send(channel.name, channel.sends)
            with self._lock:
                self._sent_clocks[(channel.name, channel.sends)] = stamp
        seq = channel.send(value, rank=rank)
        if self._trace is not None:
            with self._lock:
                self._trace.record(rank, "send", channel.name, seq)

    def exec_recv(self, rank: int, channel: Channel) -> Any:
        if self.observer is not None:
            t0 = self.observer.clock()
            value = channel.recv(rank=rank, timeout=self._recv_timeout)
            self.observer.recv_blocked(
                rank, channel.name, t0, self.observer.clock()
            )
        else:
            value = channel.recv(rank=rank, timeout=self._recv_timeout)
        # SRSW: this thread is the only receiver, so ``receives`` is
        # stable between the recv above and the reads below.
        if self.causal is not None:
            seq = channel.receives - 1
            with self._lock:
                stamp = self._sent_clocks.pop((channel.name, seq), None)
            self.causal[rank].on_recv(channel.name, seq, stamp)
        if self._trace is not None:
            seq = channel.receives - 1
            with self._lock:
                self._trace.record(rank, "recv", channel.name, seq)
        return value

    def exec_step(self, rank: int, label: str) -> None:
        if self.causal is not None:
            self.causal[rank].on_step(label)
        if self._trace is not None:
            with self._lock:
                self._trace.record(rank, "step", None, -1, label=label)


class ThreadedEngine:
    """Run a :class:`~repro.runtime.system.System` on free-running threads.

    Parameters
    ----------
    trace:
        Record an execution trace (observation order).  Off by default:
        tracing serialises on a lock and perturbs timing.
    recv_timeout:
        Optional upper bound, in seconds, on any single blocking
        receive.  ``None`` (default) waits indefinitely.
    observe:
        ``True`` creates a fresh :class:`~repro.obs.observer.Observer`
        per run; an :class:`Observer` instance is used as given (one
        observer may span layers, but then reuse it for one run only).
        Off by default — the un-observed path never reads a clock.
        The result's ``report`` carries the per-run summary.
    trace_causal:
        Record per-rank Lamport-clock event logs and merge them into a
        happens-before :class:`~repro.obs.causal.CausalTrace` on the
        result's ``causal`` field.  Unlike ``trace`` this never imposes
        an observation order, so it is also available on the process
        engines; recording is a pure refinement — it cannot change what
        any body computes.
    """

    name = "threaded"

    def __init__(
        self,
        trace: bool = False,
        recv_timeout: float | None = None,
        observe=False,
        trace_causal: bool = False,
    ):
        self._trace_enabled = trace
        self._recv_timeout = recv_timeout
        self._observe = observe
        self._trace_causal = trace_causal

    def run(self, system: System) -> RunResult:
        trace = Trace() if self._trace_enabled else None
        executor = _ThreadedExecutor(trace, self._recv_timeout)
        state = RunState(
            system, executor, trace, self._observe, self._trace_causal
        )
        observer = state.observer
        errors: dict[int, BaseException] = {}
        threads: list[threading.Thread] = []

        def runner(rank: int) -> None:
            ctx = state.contexts[rank]
            if observer is not None:
                observer.process_started(rank, ctx.name)
            try:
                state.returns[rank] = system.processes[rank].body(ctx)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors[rank] = exc
            finally:
                # Closing write channels wakes readers blocked on queues
                # this process will never fill again.
                for ch in ctx.out_channels.values():
                    ch.close()
                if observer is not None:
                    observer.process_finished(rank)

        for p in system.processes:
            t = threading.Thread(
                target=runner, args=(p.rank,), name=p.name, daemon=True
            )
            threads.append(t)
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if errors:
            rank = min(errors)
            raise wrap_process_failure(rank, errors[rank]) from errors[rank]
        return state.result(self.name)
