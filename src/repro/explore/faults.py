"""Declarative fault injection: kills and delivery delays.

Theorem 1 promises determinacy over *every* maximal interleaving; the
fault plans here stress the two ways a real deployment leaves that
space and the one way it doesn't:

* **kill faults** (:class:`KillFault`) — rank ``r`` dies before its
  ``k``-th scheduler-visible action.  Inside the cooperative/threaded
  engines the kill is a planted :class:`InjectedKill` exception; against
  the multiprocess/socket engines (``real_kill=True``) it is a genuine
  ``SIGKILL`` of the worker process, exercising the crash-reaping path
  end to end.  The contract under a kill plan: every explored schedule
  yields either the bitwise-identical fault-free final state (the
  victim had already finished its actions) or a clean
  :class:`~repro.errors.ProcessFailedError` carrying rank + step +
  fault id — never a hang, never a corrupted result.
  One kill point lies *before* the body's first action and exists only
  on the process engines: ``kill:R@need`` plants a constant in rank
  ``R``'s store whose arrival kills the process that unpickles it — on
  the socket engine the worker daemon, in the middle of the
  ``need``/``constants`` exchange that ships a rank's constants to a
  daemon that does not hold them (:mod:`repro.dist.net.daemon`); on the
  multiprocess engine the pool worker, unpacking its job.
* **delay faults** (:class:`DelayFault`) — the ``i``-th delivery on a
  channel is held back.  A delay *within slack* is just another legal
  interleaving, so Theorem 1 predicts bitwise-identical results; under
  the cooperative engine the hold is a scheduling mask
  (:class:`FaultedPolicy` refuses to grant the reader's receive for
  ``hold`` decisions), and under the process engines it is a real-time
  sender-side sleep (``real_delay=True``) indistinguishable from
  OS-scheduler or TCP-slack jitter.

:func:`apply_faults` rewrites a system with fault-wrapped bodies; the
wrapper (:class:`FaultingBody`) is a module-level class so it crosses
the spawn/socket pickling boundary, and the planted exception stamps
``inject_step`` / ``fault_id`` attributes that every engine's
:func:`~repro.errors.wrap_process_failure` copies onto the raised
:class:`~repro.errors.ProcessFailedError`.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.runtime.process import ProcessSpec
from repro.runtime.schedulers import PendingAction, SchedulingPolicy
from repro.runtime.system import System

__all__ = [
    "KillFault",
    "DelayFault",
    "FaultPlan",
    "InjectedKill",
    "FaultingBody",
    "FaultedPolicy",
    "apply_faults",
    "parse_fault_plan",
]


class InjectedKill(ReproError):
    """The planted death of a process body (simulated kill fault).

    Carries ``inject_step`` and ``fault_id`` so the engine-level
    :class:`~repro.errors.ProcessFailedError` reports full fault
    provenance, including across the wire.
    """

    def __init__(self, rank: int, step: int, fault_id: str):
        super().__init__(
            f"injected kill of rank {rank} before its action {step} "
            f"({fault_id})"
        )
        self.rank = rank
        self.inject_step = step
        self.fault_id = fault_id

    def __reduce__(self):
        return (InjectedKill, (self.rank, self.inject_step, self.fault_id))


#: The ``step`` of a kill at the ``need``/``constants`` exchange, before
#: the body's action 0 (spelled ``kill:R@need``).
AT_NEED = -1


@dataclass(frozen=True)
class KillFault:
    """Kill ``rank`` immediately before its ``step``-th action (0-based,
    counting that rank's sends + receives + steps).  A rank that
    finishes earlier never triggers the fault — the run then completes
    with the fault-free final state, which is the expected benign
    outcome.  ``step`` :data:`AT_NEED` kills the process hosting the
    rank while its constants arrive (process engines only)."""

    rank: int
    step: int

    @property
    def fault_id(self) -> str:
        step = "need" if self.step == AT_NEED else self.step
        return f"kill:{self.rank}@{step}"


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


class _KillOnArrival:
    """Pickles as a call of :func:`_die`: the process that unpickles it
    is killed mid-decode."""

    def __reduce__(self):
        return (_die, ())


def _poisoned_constant() -> np.ndarray:
    """A constant (read-only array) that kills whoever receives it.  An
    object array rides the header pickle of its wire frame, so a daemon
    dies decoding the ``constants`` frame it asked for."""
    arr = np.empty(1, dtype=object)
    arr[0] = _KillOnArrival()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DelayFault:
    """Hold back the ``index``-th delivery (0-based receive sequence) on
    ``channel``.  ``hold`` is the number of scheduling decisions the
    cooperative engine masks the grant for; ``delay_s`` is the
    real-time sender-side sleep used on the process engines."""

    channel: str
    index: int
    hold: int = 4
    delay_s: float = 0.05

    @property
    def fault_id(self) -> str:
        return f"delay:{self.channel}#{self.index}"


@dataclass(frozen=True)
class FaultPlan:
    """A declarative set of faults applied to one run."""

    kills: tuple[KillFault, ...] = ()
    delays: tuple[DelayFault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.kills or self.delays)

    def describe(self) -> str:
        ids = [f.fault_id for f in self.kills + self.delays]
        return ",".join(ids) if ids else "none"

    def kill_for(self, rank: int) -> KillFault | None:
        for fault in self.kills:
            if fault.rank == rank:
                return fault
        return None

    def to_dict(self) -> dict:
        return {
            "kills": [
                {"rank": f.rank, "step": f.step} for f in self.kills
            ],
            "delays": [
                {
                    "channel": f.channel,
                    "index": f.index,
                    "hold": f.hold,
                    "delay_s": f.delay_s,
                }
                for f in self.delays
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            kills=tuple(
                KillFault(int(k["rank"]), int(k["step"]))
                for k in data.get("kills", ())
            ),
            delays=tuple(
                DelayFault(
                    str(d["channel"]),
                    int(d["index"]),
                    int(d.get("hold", 4)),
                    float(d.get("delay_s", 0.05)),
                )
                for d in data.get("delays", ())
            ),
        )


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a CLI fault spec: comma-separated ``kill:RANK@STEP`` (or
    ``kill:RANK@need``) and ``delay:CHANNEL#INDEX[~HOLD]`` entries, e.g.
    ``kill:1@3,delay:c0#0~6``."""
    kills: list[KillFault] = []
    delays: list[DelayFault] = []
    for part in filter(None, (p.strip() for p in spec.split(","))):
        kind, _, rest = part.partition(":")
        try:
            if kind == "kill":
                rank, _, step = rest.partition("@")
                kills.append(
                    KillFault(
                        int(rank), AT_NEED if step == "need" else int(step)
                    )
                )
            elif kind == "delay":
                channel, _, idx = rest.partition("#")
                if not channel or not idx:
                    raise ValueError(part)
                hold = 4
                if "~" in idx:
                    idx, _, hold_s = idx.partition("~")
                    hold = int(hold_s)
                delays.append(DelayFault(channel, int(idx), hold))
            else:
                raise ValueError(part)
        except ValueError as exc:
            raise ReproError(
                f"bad fault spec {part!r} (expected kill:RANK@STEP, "
                "kill:RANK@need or delay:CHANNEL#INDEX[~HOLD])"
            ) from exc
    return FaultPlan(kills=tuple(kills), delays=tuple(delays))


class _FaultContext:
    """Context proxy that counts a rank's actions and fires its faults.

    Wraps the engine-provided :class:`~repro.runtime.context
    .ProcessContext`, forwarding everything while (a) raising/executing
    the kill fault before the configured action index and (b) sleeping
    before delayed sends when real-time delays are requested.
    """

    def __init__(
        self,
        inner,
        kill: KillFault | None,
        delays: dict[tuple[str, int], DelayFault],
        real_kill: bool,
        real_delay: bool,
    ):
        self._inner = inner
        self._kill = kill
        self._delays = delays
        self._real_kill = real_kill
        self._real_delay = real_delay
        self._count = 0
        self._send_seq: dict[str, int] = {}

    def _tick(self) -> None:
        if self._kill is not None and self._count == self._kill.step:
            if self._real_kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedKill(
                self._inner.rank, self._kill.step, self._kill.fault_id
            )
        self._count += 1

    def send(self, channel, value) -> None:
        self._tick()
        name = channel if isinstance(channel, str) else channel.name
        seq = self._send_seq.get(name, 0)
        self._send_seq[name] = seq + 1
        fault = self._delays.get((name, seq))
        if fault is not None and self._real_delay:
            time.sleep(fault.delay_s)
        self._inner.send(channel, value)

    def recv(self, channel) -> Any:
        self._tick()
        return self._inner.recv(channel)

    def step(self, label: str = "compute") -> None:
        self._tick()
        self._inner.step(label)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class FaultingBody:
    """Picklable body wrapper applying one rank's share of a fault plan.

    A module-level class (not a closure) so it pickles by reference
    across the multiprocess/socket engines' spawn boundary; the wrapped
    ``body`` itself travels by value through the closure pickler.
    """

    def __init__(
        self,
        body,
        kill: KillFault | None,
        delays: tuple[DelayFault, ...],
        real_kill: bool,
        real_delay: bool,
    ):
        self.body = body
        self.kill = kill
        self.delays = delays
        self.real_kill = real_kill
        self.real_delay = real_delay

    def __call__(self, ctx):
        proxy = _FaultContext(
            ctx,
            self.kill,
            {(d.channel, d.index): d for d in self.delays},
            self.real_kill,
            self.real_delay,
        )
        return self.body(proxy)


def apply_faults(
    system: System,
    plan: FaultPlan,
    real_kill: bool = False,
    real_delay: bool = False,
) -> System:
    """A new system whose bodies execute under ``plan``.

    ``real_kill=True`` turns kill faults into genuine ``SIGKILL``s of
    the executing process — only meaningful on the multiprocess/socket
    engines, where each rank is its own OS process.  ``real_delay=True``
    turns delay faults into sender-side real-time sleeps (process
    engines); leave it off under the cooperative engine, where delays
    are scheduling masks applied by :class:`FaultedPolicy` instead.
    """
    for fault in plan.kills:
        if not 0 <= fault.rank < system.nprocs:
            raise ReproError(
                f"{fault.fault_id}: rank {fault.rank} does not exist "
                f"(nprocs={system.nprocs})"
            )
        if fault.step == AT_NEED and not real_kill:
            raise ReproError(
                f"{fault.fault_id}: constants arrive nowhere inside one "
                "address space; this kill point needs a process engine "
                "(--engine socket)"
            )
    names = {spec.name for spec in system.channel_specs}
    for fault in plan.delays:
        if fault.channel not in names:
            raise ReproError(
                f"{fault.fault_id}: channel {fault.channel!r} does not "
                f"exist (channels: {sorted(names)})"
            )
    writer_of = {spec.name: spec.writer for spec in system.channel_specs}
    processes = []
    for p in system.processes:
        delays = tuple(
            d for d in plan.delays if writer_of[d.channel] == p.rank
        )
        kill = plan.kill_for(p.rank)
        body, store = p.body, p.store
        if kill is not None and kill.step == AT_NEED:
            store = {**store, "_kill_at_need": _poisoned_constant()}
        elif kill is not None or (delays and real_delay):
            body = FaultingBody(p.body, kill, delays, real_kill, real_delay)
        processes.append(ProcessSpec(p.rank, body, store=store, name=p.name))
    return System(processes, system.channel_specs)


class FaultedPolicy(SchedulingPolicy):
    """Cooperative-engine delay faults: mask the delayed delivery.

    Wraps ``inner``; when the reader's receive of a delayed delivery is
    enabled, it is withheld from ``inner`` for up to ``hold`` scheduling
    decisions.  Two safety rules keep the masked run a legal maximal
    interleaving (so Theorem 1 still applies verbatim): the mask never
    empties the enabled set (a delay is within-slack, not a block), and
    it expires after ``hold`` decisions regardless.
    """

    def __init__(self, inner: SchedulingPolicy, delays):
        self.inner = inner
        self._delays = {(d.channel, d.index): d for d in delays}
        self._held: dict[tuple[str, int], int] = {}
        self._channels = {}

    def reset(self) -> None:
        self.inner.reset()
        self._held = {}
        self._channels = {}

    def observe_state(self, stores, channels) -> None:
        self._channels = channels
        self.inner.observe_state(stores, channels)

    def choose(self, enabled: list[PendingAction]) -> int:
        keep: list[PendingAction] = []
        dropped: list[tuple[str, int]] = []
        for action in enabled:
            if action.kind == "recv" and action.channel is not None:
                ch = self._channels.get(action.channel)
                if ch is not None:
                    key = (action.channel, ch.receives)
                    fault = self._delays.get(key)
                    if (
                        fault is not None
                        and self._held.get(key, 0) < fault.hold
                    ):
                        dropped.append(key)
                        continue
            keep.append(action)
        if not keep:
            keep = list(enabled)
        else:
            for key in dropped:
                self._held[key] = self._held.get(key, 0) + 1
        return self.inner.choose(keep)
