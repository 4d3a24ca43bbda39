"""The API a process body sees.

A body is a plain callable ``body(ctx)``.  Everything a process may
legally do in the paper's model flows through the
:class:`ProcessContext`:

* ``ctx.store`` — the private address space (a dict of named values);
* ``ctx.send(channel, value)`` / ``ctx.recv(channel)`` — the only
  interaction with other processes (``ctx.recv_into(channel,
  landing)`` is a receive that lands the value in the receiver's store
  as it arrives, :mod:`repro.dist.wire`);
* ``ctx.step(label)`` — an optional marker delimiting local-computation
  blocks; it has no semantic effect (local actions of distinct
  processes always commute) but makes traces legible and, under the
  cooperative engine, gives the scheduler an extra preemption point so
  interleavings can split computation the way Figure 1 of the paper
  draws it;
* ``with ctx.span(name, cat):`` — times a block as a named interval of
  this rank (a program stage, an exchange, a collective), recorded in
  the rank's event log when the run is observed and free otherwise.

The context is engine-agnostic: it forwards each action to the run's
:class:`Executor`, which performs it and records it in the run's
event log — once, for every engine.  The free-running engines
(threaded, multiprocess, socket) use the class as it is (receives
block); the cooperative engine's subclass first asks its scheduler for
permission, which is how controlled interleavings are produced from
unmodified process bodies.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable

from repro.errors import ChannelError
from repro.runtime.channel import Channel

__all__ = ["ProcessContext", "Executor", "run_rank"]

#: What ``ctx.span`` returns in an unobserved run: one shared no-op.
_NO_SPAN = nullcontext()


class Executor:
    """Performs a rank's actions on its channels and records them.

    Recording is the executor's job, not the channel's: each action
    makes one call into the rank's
    :class:`~repro.runtime.trace.EventLog` — the one record the
    observed-order trace, the happens-before trace and the
    blocked/compute split are all read from — and with no log attached
    no clock is read and no lock taken.

    Nothing here locks: a rank's log is written by that rank's thread
    alone, and per-channel sequence numbers are race-free because each
    channel has exactly one writer and one reader.
    """

    def __init__(self, recv_timeout: float | None = None):
        self.recv_timeout = recv_timeout
        #: ``rank -> EventLog`` (a list or a dict) for the ranks this
        #: executor serves, or ``None``.  A send's Lamport stamp goes
        #: into the channel with the value and comes out with it.
        self.log = None

    def _park(self, rank: int, kind: str, channel: Channel | None) -> None:
        """Called before every action; free-running engines act at once."""

    def exec_send(self, rank: int, channel: Channel, value: Any) -> None:
        """Perform (or schedule and perform) a send."""
        self._park(rank, "send", channel)
        stamp = None
        if self.log is not None:
            # SRSW: this thread is the only sender, so ``sends`` is the
            # seq the send below will return.  Recorded *before* the
            # value enters the channel (and its receive after the value
            # is in hand), so no receive is observed ahead of its send.
            stamp = self.log[rank].record("send", channel.name, channel.sends)
        channel.send(value, rank=rank, clock=stamp)

    def exec_recv(self, rank: int, channel: Channel, into: Any = None) -> Any:
        """Perform a blocking receive; returns the received value
        (``None`` once landed ``into`` a landing, where a channel lands
        it in place).

        With a log attached the receive's blocked interval is timed
        from the request to the value in hand — the wait on the channel
        under a free-running engine, the park-to-grant wait under the
        cooperative one (whose scheduler grants a receive only once the
        channel is non-empty).
        """
        if self.log is not None:
            return self.log[rank].receive(channel, self._recv, into)
        return self._recv(rank, channel, into)[0]

    def _recv(
        self, rank: int, channel: Channel, into: Any = None
    ) -> tuple[Any, int | None]:
        self._park(rank, "recv", channel)
        return channel.recv_stamped(
            rank=rank, timeout=self.recv_timeout, into=into
        )

    def exec_step(self, rank: int, label: str) -> None:
        """Mark a local-computation step."""
        self._park(rank, "step", None)
        if self.log is not None:
            self.log[rank].record("step", label=label)


class ProcessContext:
    """Per-process, per-run view of the system.

    Channel handles are exposed by name: ``ctx.send("c01", v)`` uses the
    channel named ``"c01"``, which must have this process as its writer.
    Bodies may also hold :class:`Channel` objects directly (as obtained
    from :meth:`out_channel` / :meth:`in_channel`), which avoids a dict
    lookup in inner loops.
    """

    __slots__ = (
        "rank",
        "nprocs",
        "store",
        "name",
        "observer",
        "_out",
        "_in",
        "_executor",
    )

    def __init__(
        self,
        rank: int,
        nprocs: int,
        store: dict[str, Any],
        out_channels: dict[str, Channel],
        in_channels: dict[str, Channel],
        executor: Executor,
        name: str = "",
        observer: Any = None,
    ):
        self.rank = rank
        self.nprocs = nprocs
        self.store = store
        self.name = name or f"P{rank}"
        #: the run's :class:`~repro.obs.observer.Observer`, or ``None``
        #: when the run is not instrumented (the default); the
        #: communicator records its tagged streams through it
        self.observer = observer
        self._out = out_channels
        self._in = in_channels
        self._executor = executor

    # -- channel lookup ------------------------------------------------------

    def out_channel(self, name: str) -> Channel:
        """The channel this process writes, by name."""
        try:
            return self._out[name]
        except KeyError:
            raise ChannelError(
                f"{self.name} has no outgoing channel {name!r}; "
                f"outgoing: {sorted(self._out)}"
            ) from None

    def in_channel(self, name: str) -> Channel:
        """The channel this process reads, by name."""
        try:
            return self._in[name]
        except KeyError:
            raise ChannelError(
                f"{self.name} has no incoming channel {name!r}; "
                f"incoming: {sorted(self._in)}"
            ) from None

    @property
    def out_channels(self) -> dict[str, Channel]:
        return dict(self._out)

    @property
    def in_channels(self) -> dict[str, Channel]:
        return dict(self._in)

    # -- actions ---------------------------------------------------------------

    def send(self, channel: str | Channel, value: Any) -> None:
        """Send ``value`` on ``channel`` (never blocks: infinite slack).

        Dispatch is on the *name* type so that any channel-shaped
        endpoint object (in-process :class:`Channel`, cross-process
        ``SocketChannel``) passes through untouched.
        """
        ch = self.out_channel(channel) if isinstance(channel, str) else channel
        self._executor.exec_send(self.rank, ch, value)

    def recv(self, channel: str | Channel) -> Any:
        """Blocking receive from ``channel``."""
        ch = self.in_channel(channel) if isinstance(channel, str) else channel
        return self._executor.exec_recv(self.rank, ch)

    def recv_into(self, channel: str | Channel, landing: Any) -> None:
        """Blocking receive whose value is landed through ``landing``
        (the landing protocol of :mod:`repro.dist.wire`): checked and
        written into the receiver's store, in place as it arrives on a
        stream."""
        ch = self.in_channel(channel) if isinstance(channel, str) else channel
        self._executor.exec_recv(self.rank, ch, landing)

    def step(self, label: str = "compute") -> None:
        """Mark a local-computation step (trace/preemption point only)."""
        self._executor.exec_step(self.rank, label)

    def span(self, name: str, cat: str = "phase", **args: Any):
        """Time the ``with`` block as a span of this rank: a row of its
        event log when the run is observed; otherwise nothing is
        recorded and no clock is read."""
        if self.observer is None:
            return _NO_SPAN
        return self._executor.log[self.rank].span(name, cat, args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessContext(rank={self.rank}, nprocs={self.nprocs})"


def run_rank(ctx: ProcessContext, body: Callable[[ProcessContext], Any]) -> Any:
    """Run ``body(ctx)`` as the rank's program and return what it
    returns; in an observed run the rank's event log records when it
    began and ended.

    However the body ends, the rank's write channels close: that wakes
    readers blocked on queues this rank will never fill again, and in a
    worker it flushes them first, so that by the time the rank reports
    every value it sent is on its stream.
    """
    lifetime = _NO_SPAN
    if ctx.observer is not None:
        lifetime = ctx._executor.log[ctx.rank].lifetime(ctx.name)
    try:
        with lifetime:
            return body(ctx)
    finally:
        for ch in ctx._out.values():
            ch.close()
