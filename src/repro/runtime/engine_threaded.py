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
* a body that raises is reported as
  :class:`~repro.errors.ProcessFailedError` after all threads have been
  reaped.
"""

from __future__ import annotations

import threading

from repro.errors import wrap_process_failure
from repro.runtime.context import Executor
from repro.runtime.system import RunResult, RunState, System

__all__ = ["ThreadedEngine"]


class ThreadedEngine:
    """Run a :class:`~repro.runtime.system.System` on free-running threads.

    Parameters
    ----------
    trace:
        Record the run's Lamport-stamped
        :class:`~repro.runtime.trace.Trace`, in observation order.  Off
        by default: recording reads a clock per action and perturbs
        timing — but it cannot change what any body computes.
    observe:
        ``True`` creates a fresh :class:`~repro.obs.observer.Observer`
        per run; an :class:`Observer` instance is used as given (one
        observer may span layers, but then reuse it for one run only).
        Off by default — the un-observed path never reads a clock.
        The result's ``report`` carries the per-run summary.
    """

    name = "threaded"

    def __init__(self, trace: bool = False, observe=False):
        #: What a run's :class:`RunState` is told to record.
        self._instruments = (trace, observe)

    def run(self, system: System) -> RunResult:
        executor = Executor()
        state = RunState(system, executor, *self._instruments)
        errors: dict[int, BaseException] = {}
        threads: list[threading.Thread] = []

        def runner(rank: int) -> None:
            try:
                state.run_body(rank)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors[rank] = exc

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
