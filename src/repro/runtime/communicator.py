"""Tagged point-to-point messaging over SRSW channels.

The paper's Theorem 1 is stated for single-reader single-writer
channels, and section 3.3 notes real message-passing systems can
simulate channels "using tagged point-to-point messages if necessary".
This module supplies the glue in both directions:

* :func:`make_full_mesh_channels` wires one channel per ordered process
  pair (the physical layer);
* :class:`Communicator` multiplexes arbitrarily many logical streams
  over those channels by tagging every payload, with per-source
  buffering so receives may select by tag out of arrival order — the
  familiar MPI-flavoured interface
  (``send(value, dest, tag)`` / ``recv(source, tag)``) that the
  collectives (:mod:`~repro.runtime.collectives`) and the mpi4py-style
  facade (:mod:`~repro.runtime.mpi_style`) are written against.

Because each ordered pair has its own FIFO channel and each logical
stream uses a fixed tag, messages of one stream are received in the
order sent — the same per-pair FIFO order the refinement transform's
exchange channels give it when it converts data-exchange assignments
into sends and receives.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import CommunicatorError
from repro.runtime.context import ProcessContext
from repro.runtime.message import ANY_TAG, TaggedMessage
from repro.runtime.system import System
from repro.util import deep_copy_value, payload_nbytes

__all__ = ["Communicator", "make_full_mesh_channels", "pair_channel_name"]

#: Default channel-name prefix for communicator meshes.
_PREFIX = "msg"


def pair_channel_name(src: int, dst: int, prefix: str = _PREFIX) -> str:
    """Canonical name of the channel carrying messages ``src -> dst``."""
    return f"{prefix}_{src}_{dst}"


def make_full_mesh_channels(
    system: System, prefix: str = _PREFIX, ranks: list[int] | None = None
) -> None:
    """Add one channel per ordered pair of ``ranks`` to ``system``.

    With N processes this wires N*(N-1) channels.  For systems whose
    communication structure is known (e.g. mesh boundary exchange) a
    sparser wiring is preferable; the archetype layer wires only the
    channels it needs.
    """
    rs = list(ranks) if ranks is not None else list(range(system.nprocs))
    for i in rs:
        for j in rs:
            if i != j:
                system.add_channel(pair_channel_name(i, j, prefix), i, j)


class Communicator:
    """MPI-flavoured tagged point-to-point messaging for one process.

    Created inside a process body from its context::

        def body(ctx):
            comm = Communicator(ctx)
            comm.send(value, dest=1, tag=7)
            other = comm.recv(source=1, tag=7)

    Receives select by ``(source, tag)``; envelopes that arrive before
    they are wanted are buffered per source, so two logical streams
    between the same pair of processes cannot corrupt each other.

    When the run is observed (see :mod:`repro.obs`), every send is
    reported as one message of its ``(source, dest, tag)`` logical
    stream, and the out-of-order buffer's occupancy high-water mark is
    tracked per rank in the run's metrics registry.
    """

    def __init__(self, ctx: ProcessContext, prefix: str = _PREFIX):
        self.ctx = ctx
        self.rank = ctx.rank
        self.size = ctx.nprocs
        self._prefix = prefix
        self._obs = ctx.observer
        # Envelopes received from each source but not yet consumed.
        self._pending: dict[int, deque[TaggedMessage]] = {}

    # -- plumbing ---------------------------------------------------------------

    def _out(self, dest: int):
        return self.ctx.out_channel(pair_channel_name(self.rank, dest, self._prefix))

    def _in(self, source: int):
        return self.ctx.in_channel(pair_channel_name(source, self.rank, self._prefix))

    # -- operations ---------------------------------------------------------------

    def send(self, value: Any, dest: int, tag: int = 0, copy: bool = False) -> None:
        """Send ``value`` to ``dest`` under ``tag``.

        Never blocks (infinite slack).  ``copy=True`` deep-copies the
        payload first, for callers that will mutate it after sending
        (the mpi4py-style facade passes it); callers that send values
        they never touch again pass ``copy=False``.
        """
        if dest == self.rank:
            raise CommunicatorError(
                f"rank {self.rank} attempted send-to-self; local data "
                "never travels through a channel"
            )
        if copy:
            value = deep_copy_value(value)
        if self._obs is not None:
            self._obs.message(self.rank, dest, tag, payload_nbytes(value))
        self.ctx.send(self._out(dest), TaggedMessage(self.rank, tag, value))

    def recv(self, source: int, tag: int = ANY_TAG) -> Any:
        """Blocking receive of the next message from ``source`` matching
        ``tag`` (or any tag, with :data:`~repro.runtime.message.ANY_TAG`).
        """
        if source == self.rank:
            raise CommunicatorError(
                f"rank {self.rank} attempted recv-from-self"
            )
        buf = self._pending.setdefault(source, deque())
        for i, env in enumerate(buf):
            if env.matches(tag):
                del buf[i]
                return env.payload
        ch = self._in(source)
        while True:
            env = self.ctx.recv(ch)
            if not isinstance(env, TaggedMessage):
                raise CommunicatorError(
                    f"non-enveloped value on communicator channel "
                    f"{ch.name!r}: {type(env).__name__}"
                )
            if env.matches(tag):
                return env.payload
            buf.append(env)
            if self._obs is not None:
                self._obs.registry.gauge(
                    f"comm/pending/P{self.rank}"
                ).update_max(len(buf))

    def sendrecv(
        self,
        value: Any,
        partner: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any:
        """Exchange with ``partner``: send then receive.

        Safe in any interleaving because the send cannot block —
        this is exactly the sends-before-receives ordering the paper
        prescribes for data-exchange operations.
        """
        self.send(value, partner, send_tag)
        return self.recv(partner, send_tag if recv_tag is None else recv_tag)
