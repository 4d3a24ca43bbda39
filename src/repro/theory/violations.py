"""Counterexample systems: Theorem 1 with a hypothesis removed.

Each builder returns a system (plus, where needed, an unsafe channel
variant) that satisfies *all but one* of Theorem 1's hypotheses, and
whose final state genuinely depends on the interleaving — demonstrating
that every hypothesis is load-bearing:

* :func:`shared_variable_system` — processes share a mutable variable
  (violates "no shared variables"): lost updates under some schedules;
* :func:`multi_writer_channel_system` — two writers on one channel
  (violates single-writer): the reader's view depends on send order;
* :func:`nondeterministic_body_system` — a body consults the channel
  *depth*, which is schedule-dependent state outside the model
  (violates determinism);
* :func:`finite_slack_system` — channels with bounded capacity
  (violates infinite slack): a legal-looking program fails under
  schedules that let the producer run ahead.

These are used by the negative tests and by experiment E5's report.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ChannelError
from repro.runtime.channel import Channel, ChannelSpec
from repro.runtime.process import ProcessSpec
from repro.runtime.system import System

__all__ = [
    "shared_variable_system",
    "multi_writer_channel_system",
    "nondeterministic_body_system",
    "finite_slack_system",
    "UnsafeMultiWriterChannel",
    "BoundedChannel",
]


# ---------------------------------------------------------------------------
# 1. Shared variables
# ---------------------------------------------------------------------------


def shared_variable_system(increments: int = 5) -> System:
    """Two processes incrementing one shared counter, non-atomically.

    The shared cell lives in a closure, deliberately bypassing the
    per-process stores.  Each increment is read-modify-write split
    across two scheduler-visible actions (``ctx.step`` park points), so
    cooperative schedules can interleave the read and the write of
    different processes — the classic lost-update race.  Final counter
    value ranges between ``increments + 1`` and ``2 * increments``
    depending on the schedule.
    """
    shared = {"counter": 0}

    def body(ctx):
        for _ in range(increments):
            ctx.step("read")
            observed = shared["counter"]
            ctx.step("write")
            shared["counter"] = observed + 1
        ctx.store["final"] = shared["counter"]

    # NOTE: both specs close over the same dict — exactly what the
    # model forbids and ProcessSpec.fresh_store cannot protect against.
    return System([ProcessSpec(0, body), ProcessSpec(1, body)])


# ---------------------------------------------------------------------------
# 2. Multi-writer channel
# ---------------------------------------------------------------------------


class _AnyRank:
    """Sentinel equal to every rank — lets an unsafe channel masquerade
    as writable by all processes when run state is wired up."""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, int)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:  # pragma: no cover - never used as key
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<any rank>"


class UnsafeMultiWriterChannel(Channel):
    """A channel that skips writer-ownership checks (test rig only).

    Its ``writer`` compares equal to every rank, so system wiring hands
    an outgoing handle to *all* processes — precisely the single-writer
    violation the counterexample needs.
    """

    @property
    def writer(self):  # type: ignore[override]
        return _AnyRank()

    def send(self, value: Any, *, rank: int, clock: int | None = None) -> int:
        # Re-implement without the ownership check (and with the count
        # under the lock: here the writers really are concurrent).
        with self._lock:
            seq = self.sends
            self._queue.append((value, clock))
            self.sends += 1
            self._nonempty.notify()
        return seq

    def close(self) -> None:
        # With two writers, the first to terminate must not close the
        # channel under the other; closing is disabled for the rig.
        pass


class _MultiWriterSystem(System):
    """System whose channels named ``mw*`` are multi-writer-unsafe."""

    def make_channel(self, spec: ChannelSpec) -> Channel:
        if spec.name.startswith("mw"):
            return UnsafeMultiWriterChannel(spec)
        return super().make_channel(spec)

    def add_multiwriter_channel(self, name: str, reader: int) -> None:
        # Registered with an arbitrary concrete writer to pass wiring
        # checks; the unsafe channel then accepts sends from anyone.
        self.add_channel_spec(ChannelSpec(name, (reader + 1) % self.nprocs, reader))


def multi_writer_channel_system() -> System:
    """Two writers race to the same channel; the reader records arrival
    order.  Final state = the order, which is schedule-dependent."""

    def writer(ctx):
        ctx.send("mw", f"from{ctx.rank}")

    def reader(ctx):
        ctx.store["order"] = [ctx.recv("mw"), ctx.recv("mw")]

    system = _MultiWriterSystem(
        [ProcessSpec(0, writer), ProcessSpec(1, writer), ProcessSpec(2, reader)]
    )
    system.add_multiwriter_channel("mw", reader=2)
    return system


# ---------------------------------------------------------------------------
# 3. Nondeterministic process body
# ---------------------------------------------------------------------------


def nondeterministic_body_system(n_messages: int = 4) -> System:
    """The consumer peeks at the channel *depth* — state the model does
    not allow a process to observe — and bases its result on it.

    A producer sends ``n_messages`` values; the consumer records how
    many were already queued before its first receive.  Under
    run-to-block scheduling the producer finishes first (depth = n);
    under round-robin the consumer starts early (depth small).
    """

    def producer(ctx):
        for i in range(n_messages):
            ctx.send("c", i)

    def consumer(ctx):
        ctx.step("peek")
        # Illegal move: inspecting queue depth is not receive semantics.
        depth = len(ctx.in_channel("c"))
        ctx.store["peeked_depth"] = depth
        for _ in range(n_messages):
            ctx.recv("c")

    system = System([ProcessSpec(0, producer), ProcessSpec(1, consumer)])
    system.add_channel("c", 0, 1)
    return system


# ---------------------------------------------------------------------------
# 4. Finite slack
# ---------------------------------------------------------------------------


class BoundedChannel(Channel):
    """A channel with finite capacity: send on a full queue *fails*.

    (In a blocking-send formulation the producer would block; either
    way the behaviour of the program becomes schedule-dependent, which
    is the point of the counterexample.)
    """

    CAPACITY = 2

    def send(self, value: Any, *, rank: int, clock: int | None = None) -> int:
        with self._lock:
            if len(self._queue) >= self.CAPACITY:
                raise ChannelError(
                    f"channel {self.name!r} full (capacity "
                    f"{self.CAPACITY}); finite slack violated the model"
                )
        return super().send(value, rank=rank, clock=clock)


class _BoundedSystem(System):
    def make_channel(self, spec: ChannelSpec) -> Channel:
        if spec.name.startswith("bounded"):
            return BoundedChannel(spec)
        return super().make_channel(spec)


def finite_slack_system(n_messages: int = 6) -> System:
    """Producer/consumer over a capacity-2 channel.

    Under round-robin scheduling the consumer keeps pace and the run
    completes; under run-to-block the producer floods the channel and
    the run *fails* — termination itself becomes schedule-dependent,
    violating Theorem 1's conclusion.
    """

    def producer(ctx):
        for i in range(n_messages):
            ctx.send("bounded", i)

    def consumer(ctx):
        ctx.store["got"] = [ctx.recv("bounded") for _ in range(n_messages)]

    system = _BoundedSystem([ProcessSpec(0, producer), ProcessSpec(1, consumer)])
    system.add_channel("bounded", 0, 1)
    return system
