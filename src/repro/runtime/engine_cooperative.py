"""The cooperative engine: controlled maximal interleavings.

This engine runs the *same* process bodies as the threaded engine, but
one action at a time: before every send, receive, or explicit local
step, the process parks and the engine's scheduling policy decides who
moves next.  Because the policy only ever sees *enabled* actions —
sends and steps always; receives only when their channel is non-empty —
each completed run is a legal maximal interleaving of the system in the
paper's sense, and the engine is therefore:

* the **simulated execution** of section 3.1 (interleave actions,
  distinct address spaces, channels as queues, never read an empty
  channel);
* the instrument of the **Theorem 1 experiments**: run one system under
  many policies/seeds and observe that every maximal interleaving
  terminates in the same final state;
* an exact **replayer** (via
  :class:`~repro.runtime.schedulers.ReplayPolicy`) and the substrate of
  exhaustive interleaving enumeration (:mod:`repro.theory.enumerate`).

Mechanically each process body still runs on its own thread, but a
handshake (park / grant) ensures only one thread is ever executing
between scheduling decisions, so execution is sequential — a genuine
simulation, not merely a serialised parallel run.

Deadlock — live processes, none enabled — is detected exactly and
raised as :class:`~repro.errors.DeadlockError` with a map of which rank
is blocked on which channel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import (
    DeadlockError,
    ScheduleError,
    wrap_process_failure,
)
from repro.runtime.channel import Channel
from repro.runtime.context import Executor
from repro.runtime.schedulers import (
    PendingAction,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from repro.runtime.system import RunResult, RunState, System

__all__ = ["CooperativeEngine"]


class _AbortExecution(BaseException):
    """Raised inside a parked process thread to unwind it when the engine
    aborts a run (deadlock, failure elsewhere, schedule error).  Derives
    from BaseException so well-behaved bodies cannot swallow it."""


@dataclass
class _Request:
    kind: str  # 'send' | 'recv' | 'step'
    channel: Channel | None


class _Slot:
    """Synchronisation state for one process thread."""

    def __init__(self, rank: int):
        self.rank = rank
        self.pending: _Request | None = None
        self.parked = threading.Event()  # set: awaiting grant, or finished
        self.go = threading.Event()  # set by engine: perform your action
        self.finished = False
        self.error: BaseException | None = None
        self.aborted = False


class _CooperativeExecutor(Executor):
    """The shared executor plus park-before-act; runs inside process
    threads.

    A granted receive is made with ``timeout=0``: the engine grants it
    only after verifying the channel non-empty, so it must succeed at
    once.  With a log attached, each receive's park-to-grant
    interval is its blocked time: under the simulation a process is
    "blocked on recv" exactly while it waits for the scheduler to grant
    the receive, so the measured interval is the simulated analogue of
    the threaded engine's wait on the condition variable.
    """

    def __init__(self):
        super().__init__(recv_timeout=0)
        self.slots: list[_Slot] = []

    def _park(self, rank: int, kind: str, channel: Channel | None) -> None:
        slot = self.slots[rank]
        slot.pending = _Request(kind, channel)
        slot.parked.set()
        slot.go.wait()
        slot.go.clear()
        if slot.aborted:
            raise _AbortExecution()


class CooperativeEngine:
    """Execute a system one action at a time under a scheduling policy.

    Parameters
    ----------
    policy:
        A :class:`~repro.runtime.schedulers.SchedulingPolicy`; defaults
        to round-robin.  The policy is ``reset()`` at the start of each
        run, so one engine can be reused.
    trace:
        Record the interleaving — the result's Lamport-stamped
        :class:`~repro.runtime.trace.Trace`, in the order the actions
        were granted (default on: controlled interleavings are usually
        produced in order to be inspected).  Pure refinement: recording
        cannot change what any body computes.
    max_actions:
        Safety bound on the total number of actions; exceeding it raises
        :class:`~repro.errors.ScheduleError` (a terminating system under
        a correct policy never hits it).
    observe:
        ``True`` creates a fresh :class:`~repro.obs.observer.Observer`
        per run; an :class:`Observer` instance is used as given.  Off by
        default.  The result's ``report`` carries the per-run summary;
        note that under the simulation "blocked" time includes the
        serialisation the scheduler imposes, so the split describes the
        *simulated* schedule, not hardware parallelism.
    """

    name = "cooperative"

    def __init__(
        self,
        policy: SchedulingPolicy | None = None,
        trace: bool = True,
        max_actions: int | None = None,
        observe=False,
    ):
        self.policy = policy or RoundRobinPolicy()
        self._max_actions = max_actions
        #: What a run's :class:`RunState` is told to record.
        self._instruments = (trace, observe)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _enabled(slots: list[_Slot]) -> list[PendingAction]:
        out: list[PendingAction] = []
        for slot in slots:
            if slot.finished or slot.pending is None:
                continue
            req = slot.pending
            if req.kind == "recv":
                assert req.channel is not None
                if not req.channel.poll():
                    continue
            out.append(
                PendingAction(
                    rank=slot.rank,
                    kind=req.kind,
                    channel=req.channel.name if req.channel else None,
                )
            )
        return out

    @staticmethod
    def _blocked_edges(slots: list[_Slot]) -> dict[int, tuple[str, int]]:
        """Who waits for whom: rank -> (channel name, peer rank), for
        every rank parked on a receive."""
        blocked = {}
        for slot in slots:
            if slot.finished or slot.pending is None:
                continue
            req = slot.pending
            if req.kind == "recv" and req.channel is not None:
                blocked[slot.rank] = (req.channel.name, req.channel.writer)
        return blocked

    def _raise_deadlock(self, state: RunState, slots: list[_Slot]) -> None:
        """Build the enriched DeadlockError: per-member channel + peer in
        the message, wait-for cycles, and a partial RunResult carrying
        the cycle report on its ``deadlock`` field."""
        from repro.runtime.deadlock import build_report

        edges = self._blocked_edges(slots)
        waiting = {
            rank: f"recv on empty channel {name!r} (writer {peer})"
            for rank, (name, peer) in edges.items()
        }
        report = build_report(edges, waiting)
        # Snapshot the partial state without the observer: the run
        # report builder assumes finished processes, and the abort that
        # follows makes its numbers meaningless anyway.
        partial = state.result(self.name, report=False)
        partial.deadlock = report
        live = [s for s in slots if not s.finished]
        raise DeadlockError(
            f"{len(live)} process(es) live but none enabled: "
            f"{report.describe()}",
            waiting=waiting,
            blocked=report.blocked,
            cycles=report.cycles,
            result=partial,
        )

    def _abort_all(self, slots: list[_Slot]) -> None:
        for slot in slots:
            if not slot.finished:
                slot.aborted = True
                slot.go.set()

    # -- main entry ------------------------------------------------------------

    def run(self, system: System) -> RunResult:
        executor = _CooperativeExecutor()
        state = RunState(system, executor, *self._instruments)
        slots = [_Slot(p.rank) for p in system.processes]
        executor.slots = slots
        self.policy.reset()

        def runner(rank: int) -> None:
            slot = slots[rank]
            try:
                state.run_body(rank)
            except _AbortExecution:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported below
                slot.error = exc
            finally:
                slot.finished = True
                slot.pending = None
                slot.parked.set()

        threads = [
            threading.Thread(
                target=runner, args=(p.rank,), name=p.name, daemon=True
            )
            for p in system.processes
        ]
        for t in threads:
            t.start()

        actions = 0
        try:
            while True:
                # Quiesce: every process is either finished or parked at
                # its next action request.
                for slot in slots:
                    slot.parked.wait()
                failed = [s for s in slots if s.error is not None]
                if failed:
                    slot = min(failed, key=lambda s: s.rank)
                    raise wrap_process_failure(
                        slot.rank, slot.error
                    ) from slot.error
                live = [s for s in slots if not s.finished]
                if not live:
                    break
                enabled = self._enabled(slots)
                if not enabled:
                    self._raise_deadlock(state, slots)
                if (
                    self._max_actions is not None
                    and actions >= self._max_actions
                ):
                    raise ScheduleError(
                        f"exceeded max_actions={self._max_actions}; "
                        "system may not terminate"
                    )
                self.policy.observe_state(state.stores, state.channels)
                rank = self.policy.choose(enabled)
                if rank not in [a.rank for a in enabled]:
                    raise ScheduleError(
                        f"policy chose rank {rank}, not among enabled "
                        f"{[a.rank for a in enabled]}"
                    )
                actions += 1
                slot = slots[rank]
                slot.parked.clear()
                slot.go.set()
        except BaseException:
            self._abort_all(slots)
            for t in threads:
                t.join(timeout=5.0)
            raise

        for t in threads:
            t.join()
        return state.result(self.name)
