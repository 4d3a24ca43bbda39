"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also catching programming
mistakes such as :class:`TypeError`.  The hierarchy mirrors the package
layout: runtime errors for the message-passing substrate, refinement
errors for the stepwise-refinement framework, archetype errors for
archetype-level misuse, and model errors for the performance model.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Runtime (message-passing substrate) errors
# ---------------------------------------------------------------------------


class RuntimeModelError(ReproError):
    """Base class for errors raised by :mod:`repro.runtime`."""


class ChannelError(RuntimeModelError):
    """Misuse of a channel (wrong endpoint, closed channel, ...)."""


class ChannelOwnershipError(ChannelError):
    """A process other than the registered endpoint used a channel.

    The parallel model of the paper (section 3.1) restricts channels to a
    single reader and a single writer; this error enforces that statically
    registered ownership at run time.
    """


class EmptyChannelError(ChannelError):
    """A *simulated* execution attempted to read from an empty channel.

    In the simulated-parallel world a receive is only legal when the
    channel is known to be non-empty (section 3.1, item 3 of the
    simulation recipe); a scheduler that selects a receive on an empty
    channel is in error.
    """


class DeadlockError(RuntimeModelError):
    """All live processes are blocked on receives: no maximal interleaving
    can make progress.  Carries a diagnostic snapshot of who waits on what.

    Beyond the textual ``waiting`` map, the cooperative engine fills in
    the structured fields the schedule explorer classifies on:
    ``blocked`` maps each blocked rank to ``(channel_name, peer_rank)``
    (the channel it receives on and that channel's writer), ``cycles``
    lists the wait-for graph's circular waits as rank rings, and
    ``result`` carries the partial :class:`~repro.runtime.system`
    ``RunResult`` snapshotted at detection time, whose ``deadlock``
    field holds the full cycle report.
    """

    def __init__(
        self,
        message: str,
        waiting: dict | None = None,
        blocked: dict | None = None,
        cycles: list | None = None,
        result=None,
    ):
        super().__init__(message)
        #: mapping of rank -> textual description of the blocking receive
        self.waiting = dict(waiting or {})
        #: mapping of rank -> (channel name, peer rank it waits on)
        self.blocked = dict(blocked or {})
        #: simple cycles of the wait-for graph, each a list of ranks
        self.cycles = [list(c) for c in (cycles or [])]
        #: partial RunResult at detection time (stores mid-flight), or None
        self.result = result


class ProcessFailedError(RuntimeModelError):
    """A process body raised an exception; re-raised at the engine level.

    ``step`` and ``fault_id`` are set when the failure was *injected* by
    the schedule explorer's fault plans (:mod:`repro.explore.faults`):
    ``step`` is the 0-based action index at which the rank was killed
    and ``fault_id`` names the fault (e.g. ``"kill:1@3"``).  Both ride
    :meth:`__reduce__` so fault provenance survives the wire from a
    pool worker or a worker daemon.
    """

    def __init__(
        self,
        rank: int,
        original: BaseException,
        step: int | None = None,
        fault_id: str | None = None,
    ):
        suffix = ""
        if fault_id is not None or step is not None:
            suffix = (
                f" (injected fault {fault_id!r} at action {step})"
                if fault_id is not None
                else f" (at action {step})"
            )
        super().__init__(f"process {rank} failed: {original!r}{suffix}")
        self.rank = rank
        self.original = original
        self.step = step
        self.fault_id = fault_id

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into the multi-argument __init__ and fails; rebuild
        # from the real fields so the error survives the wire crossing
        # from a worker daemon intact — fault provenance included.
        return (
            ProcessFailedError,
            (self.rank, self.original, self.step, self.fault_id),
        )


def wrap_process_failure(
    rank: int, original: BaseException
) -> ProcessFailedError:
    """Wrap a process body's exception for re-raising at engine level.

    Carries fault-injection provenance when the exception was planted
    by :mod:`repro.explore.faults`, which stamps ``inject_step`` /
    ``fault_id`` attributes on it — every engine funnels body failures
    through here so the provenance survives uniformly, including across
    the wire (see :meth:`ProcessFailedError.__reduce__`).
    """
    return ProcessFailedError(
        rank,
        original,
        step=getattr(original, "inject_step", None),
        fault_id=getattr(original, "fault_id", None),
    )


class ScheduleError(RuntimeModelError):
    """A replay/explicit schedule was inconsistent with the system state."""


class TransportError(RuntimeModelError):
    """Base class for cross-host (socket) transport failures."""


class TransportAbortError(TransportError):
    """A stream died without the clean-close goodbye frame.

    Raised by the framing layer when a socket hits EOF mid-frame, or at
    a frame boundary without the writer's goodbye marker, or resets —
    i.e. the peer process was killed rather than finishing.  Channel
    receives map it to :class:`ProcessFailedError` (the writer rank
    died), never to :class:`EmptyChannelError` (the writer finished).
    """


class RendezvousError(TransportError):
    """The (writer, reader, channel) socket handshake could not complete."""


class RendezvousTimeoutError(RendezvousError):
    """A rendezvous handshake exceeded its configured timeout."""


class CommunicatorError(RuntimeModelError):
    """Misuse of the tagged point-to-point communicator layer."""


# ---------------------------------------------------------------------------
# Refinement framework errors
# ---------------------------------------------------------------------------


class RefinementError(ReproError):
    """Base class for errors raised by :mod:`repro.refinement`."""


class DataExchangeViolation(RefinementError):
    """A data-exchange operation violates one of the three restrictions of
    section 2.2 of the paper (definition of a sequential simulated-parallel
    program).  ``rule`` identifies which restriction failed: ``"i"`` (an
    assignment target is referenced by another assignment), ``"ii"`` (a
    side references more than one partition), or ``"iii"`` (some process
    receives no value).
    """

    def __init__(self, rule: str, message: str):
        super().__init__(f"data-exchange restriction ({rule}): {message}")
        self.rule = rule


class StoreError(RefinementError):
    """Misuse of a simulated address space (unknown variable, shape clash)."""


# ---------------------------------------------------------------------------
# Archetype errors
# ---------------------------------------------------------------------------


class ArchetypeError(ReproError):
    """Base class for errors raised by :mod:`repro.archetypes`."""


class DecompositionError(ArchetypeError):
    """An invalid grid/process-grid decomposition was requested."""


# ---------------------------------------------------------------------------
# Application errors
# ---------------------------------------------------------------------------


class FDTDError(ReproError):
    """Base class for errors raised by :mod:`repro.apps.fdtd`."""


class StabilityError(FDTDError):
    """The requested time step violates the Courant stability condition."""


class GeometryError(FDTDError):
    """A scatterer or surface does not fit inside the computational grid."""


# ---------------------------------------------------------------------------
# Performance-model errors
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for errors raised by :mod:`repro.perfmodel`."""
