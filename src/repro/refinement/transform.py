"""The mechanical simulated-parallel → parallel transformation (paper §3.3).

Theorem 1 licenses converting a sequential simulated-parallel program
into a message-passing program *mechanically*: simulated processes
become real processes, simulated address spaces become real ones, and
each data-exchange assignment becomes a send and a receive.  This
module performs that conversion on a
:class:`~repro.refinement.program.SimulatedParallelProgram`, producing a
:class:`~repro.runtime.system.System` runnable by either engine.

Faithfulness points, each traceable to the paper:

* **sends before receives** — within an exchange, a process performs
  every send before any receive, the ordering that makes the receives
  provably safe (every awaited value is already in its channel);
* **message combining** — all assignments with a common sender and a
  common receiver travel as *one* message ("a group of message-passing
  operations with a common sender and a common receiver can be combined
  for efficiency");
* **pre-state reads** — each process stages every value it will send
  (and every intra-process assignment's value) before performing any
  write, matching the parallel-assignment semantics of the sequential
  exchange;
* **minimal wiring** — one channel per (sender, receiver) pair that
  actually communicates in some exchange, not a full mesh.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import RefinementError
from repro.refinement.dataexchange import DataExchange
from repro.refinement.program import LocalBlock, SimulatedParallelProgram
from repro.refinement.split import ExchangeBegin, ExchangeEnd
from repro.refinement.store import AddressSpace
from repro.runtime.process import ProcessSpec
from repro.runtime.system import System

__all__ = ["to_parallel_system", "exchange_channel_name"]


def exchange_channel_name(src: int, dst: int) -> str:
    """Name of the channel carrying exchange traffic ``src -> dst``."""
    return f"dx_{src}_{dst}"


def _group_exchange(op: DataExchange) -> dict[int, tuple[list, list, list]]:
    """``rank -> (sends, local, recvs)`` of one exchange in one pass:
    ``[(receiver, [assignment])]``, the intra-rank assignments and
    ``[(sender, [assignment])]``, each in assignment order."""
    parts: dict[int, tuple[dict, list, dict]] = {}
    for a in op.assignments:
        src, dst = a.src.proc, a.dst.proc
        if src == dst:
            parts.setdefault(src, ({}, [], {}))[1].append(a)
        else:
            parts.setdefault(src, ({}, [], {}))[0].setdefault(dst, []).append(a)
            parts.setdefault(dst, ({}, [], {}))[2].setdefault(src, []).append(a)
    return {
        rank: (sorted(sends.items()), local, sorted(recvs.items()))
        for rank, (sends, local, recvs) in parts.items()
    }


class _RankShare:
    """One rank's share of one exchange, made from its part
    (:func:`_group_exchange`) when the rank's body is made, not on
    every exchange of every run.

    ``sends`` is one ``(channel, source refs)`` per receiver, ``local``
    the intra-rank assignments, ``recvs`` one ``(channel, slot)`` per
    sender, in sender order.  A slot names the sender and the targets
    its values land in, and is shared by every exchange of the program
    whose message from that sender writes the same targets (each time
    step's ghost exchange of one field), so a run binds it once.
    """

    __slots__ = ("sends", "local", "recvs")

    def __init__(self, part: tuple, rank: int, slots: dict) -> None:
        sends, self.local, recvs = part
        self.sends = [
            (exchange_channel_name(rank, dest), [a.src for a in assignments])
            for dest, assignments in sends
        ]
        self.recvs = []
        for source, targets in recvs:
            # repr, not the tuple: a region's slices are unhashable
            key = repr((source, [(a.dst.var, a.dst.region) for a in targets]))
            slot = slots.setdefault(key, (len(slots), source, targets))[0]
            self.recvs.append((exchange_channel_name(source, rank), slot))


#: the share of a rank with no part in an exchange
_NO_SHARE = _RankShare(([], [], []), -1, {})


class _Landing:
    """Where one slot's messages land in one run of one rank: the
    landing protocol of :mod:`repro.dist.wire`.

    A stream lands an array message through the ``(sink, strip)`` pairs
    bound here: a target view that is C-contiguous with the frame's
    dtype and shape is the sink itself, any other gets a scratch sink
    and one copy into it.  The pairs are bound on the slot's first
    message, after :meth:`AddressSpace.landing_view`'s checks (constant,
    shape, safe cast) against its header, and again when a header's
    metadata differs or a target's store array is a new object.  A
    landing lives in the body's frame for one run: nothing keeps it, so
    no resident body views a finished run's arrays.  In-memory channels
    call :meth:`land`, which writes region by region.
    """

    __slots__ = (
        "space",
        "rank",
        "source",
        "targets",
        "stage",
        "meta",
        "pairs",
        "_arrays",
    )

    def __init__(self, space: AddressSpace, rank: int, source: int, targets):
        self.space = space
        self.rank = rank
        self.source = source
        self.targets = targets
        #: the stage token the next message must carry
        self.stage = -1
        self.meta: bytes | None = None
        self.pairs: list | None = None
        self._arrays: list[tuple[str, Any]] = []

    def check(self, stage: int, count: int) -> None:
        if stage != self.stage:
            raise RefinementError(
                f"rank {self.rank} expected exchange stage {self.stage} "
                f"from {self.source}, got {stage}; the transformed "
                "program's stage sequences have diverged"
            )
        if count != len(self.targets):
            raise RefinementError(
                f"rank {self.rank} expected {len(self.targets)} values from "
                f"{self.source} at stage {self.stage}, got {count}"
            )

    def land(self, payload: dict) -> None:
        self.check(payload["stage"], len(payload["values"]))
        for a, value in zip(self.targets, payload["values"]):
            self.space.write_region(a.dst.var, a.dst.region, value)

    def bound(self, meta: bytes) -> list | None:
        if meta != self.meta:
            return None
        variables = self.space.raw()
        for name, arr in self._arrays:
            if variables[name] is not arr:
                return None
        return self.pairs

    def bind(self, meta: bytes, metas: list) -> list | None:
        self.meta = None
        pairs = []
        for a, (dtype, shape) in zip(self.targets, metas):
            view = self.space.landing_view(a.dst.var, a.dst.region, dtype, shape)
            if view is None:
                return None
            if (
                view.dtype == dtype
                and view.shape == shape
                and view.flags.c_contiguous
            ):
                pairs.append((view, None))
            else:
                pairs.append((np.empty(shape, dtype), view))
        variables = self.space.raw()
        self._arrays = [
            (name, variables[name]) for name in {a.dst.var for a in self.targets}
        ]
        self.meta, self.pairs = meta, pairs
        return pairs


def _begin_exchange(
    ctx, space: AddressSpace, stage_index: int, share: _RankShare
) -> list[tuple[Any, Any]]:
    """Phases 1-2 of one rank's share of an exchange: stage every read
    against the pre-state and launch every send.  Returns the staged
    intra-rank assignments for :func:`_finish_exchange`."""
    # Phase 1 — stage all reads against the pre-state.
    outgoing = [
        (name, [space.read_region(ref.var, ref.region) for ref in refs])
        for name, refs in share.sends
    ]
    local_staged = [
        (a, space.read_region(a.src.var, a.src.region)) for a in share.local
    ]

    # Phase 2 — all sends (combined: one message per receiver).
    for name, values in outgoing:
        ctx.send(name, {"stage": stage_index, "values": values})
    return local_staged


def _finish_exchange(
    ctx,
    space: AddressSpace,
    stage_index: int,
    share: _RankShare,
    local_staged: list[tuple[Any, Any]],
    landings: list[_Landing],
) -> None:
    """Phases 3-4: the local writes, then all receives.

    ``stage_index`` is the index of the stage that *sent* — for an
    unsplit exchange its own index, for a split pair the begin stage's —
    so the stage token in the payload still proves both sides agree on
    which exchange this is.
    """
    # Phase 3 — local writes.
    for a, value in local_staged:
        space.write_region(a.dst.var, a.dst.region, value)

    # Phase 4 — all receives (one combined message per sender), each
    # landed in assignment order, which both sides derive identically
    # from the exchange definition.
    for name, slot in share.recvs:
        landing = landings[slot]
        landing.stage = stage_index
        ctx.recv_into(name, landing)


def _make_body(program: SimulatedParallelProgram, rank: int, groups: dict):
    """The parallel process body for one rank: the program's stages,
    restricted to this rank's share of each.  ``groups`` maps each
    exchange's stage index to its :func:`_group_exchange`.

    When the run is observed, every stage this rank takes part in is
    recorded as a span named after the stage (``exchange:hx``,
    ``E-phase[3]``, ``gather:ffA``, ...), category ``stage`` for local
    blocks and ``exchange`` for data exchanges — the per-phase timeline
    of the transformed program.  Un-observed, ``ctx.span`` is a shared
    no-op that reads no clock.

    Split exchange pairs map onto the two halves of the unsplit body:
    the begin stage runs phases 1-2 (pre-state reads + sends), the end
    stage phases 3-4 (local writes + receives).  The stage token carried
    by every message is the *begin* stage's index on both sides, so the
    divergence check is as strict as for unsplit exchanges.
    """
    # End-stage index -> its begin stage's index, resolved once.  The
    # mapping is position-based, not identity-based: process bodies are
    # pickled into worker processes, where every stage object is a fresh
    # copy with a fresh id, but stage *positions* survive the trip —
    # and the begin's index doubles as the message token both sides of
    # the split exchange agree on.
    pos_of = {id(stage): i for i, stage in enumerate(program.stages)}
    end_to_begin: dict[int, int] = {
        i: pos_of[id(stage.begin)]
        for i, stage in enumerate(program.stages)
        if isinstance(stage, ExchangeEnd)
    }
    # This rank's share of every exchange, by token, and the landing
    # slots they share.
    slots: dict[str, tuple[int, int, list]] = {}
    shares = {
        i: _RankShare(group[rank], rank, slots) if rank in group else _NO_SHARE
        for i, group in groups.items()
    }
    slot_targets = [(source, targets) for _, source, targets in slots.values()]

    def body(ctx) -> None:
        space = AddressSpace.wrap(ctx.store, owner=rank)
        landings = [
            _Landing(space, rank, source, targets)
            for source, targets in slot_targets
        ]
        pending: dict[int, list[tuple[Any, Any]]] = {}
        for stage_index, stage in enumerate(program.stages):
            if isinstance(stage, LocalBlock):
                fn = stage.fn_for(rank)
                if fn is not None:
                    with ctx.span(stage.name, cat="stage"):
                        fn(space)
            elif isinstance(stage, ExchangeBegin):
                with ctx.span(stage.name, cat="exchange"):
                    pending[stage_index] = _begin_exchange(
                        ctx, space, stage_index, shares[stage_index]
                    )
            elif isinstance(stage, ExchangeEnd):
                token = end_to_begin[stage_index]
                with ctx.span(stage.name, cat="exchange"):
                    _finish_exchange(
                        ctx,
                        space,
                        token,
                        shares[token],
                        pending.pop(token),
                        landings,
                    )
            else:
                share = shares[stage_index]
                with ctx.span(stage.name, cat="exchange"):
                    local_staged = _begin_exchange(ctx, space, stage_index, share)
                    _finish_exchange(
                        ctx, space, stage_index, share, local_staged, landings
                    )

    return body


def to_parallel_system(
    program: SimulatedParallelProgram,
    initial: dict[str, Any] | None = None,
    initial_stores: list[dict[str, Any]] | None = None,
    validate: bool = True,
) -> System:
    """Transform a simulated-parallel program into a process system.

    ``initial`` duplicates one mapping into every process's store (the
    step-1 starting point); ``initial_stores`` provides per-rank stores
    instead (for programs whose refinement already distributed the
    data).  Exactly one of the two may be given; both ``None`` gives
    empty stores.

    With ``validate=True`` (default) every exchange is checked against
    restrictions (i)-(iii) before any process is built: the transform
    refuses to emit message-passing code from an ill-formed exchange.
    """
    if initial is not None and initial_stores is not None:
        raise RefinementError("pass initial or initial_stores, not both")
    if validate:
        program.validate()

    if initial_stores is not None:
        if len(initial_stores) != program.nprocs:
            raise RefinementError(
                f"initial_stores has {len(initial_stores)} entries, "
                f"program has {program.nprocs} processes"
            )
        stores = initial_stores
    else:
        stores = [dict(initial or {}) for _ in range(program.nprocs)]

    # Each exchange grouped once for every rank, by its (begin) stage.
    groups = {
        i: _group_exchange(s.op if isinstance(s, ExchangeBegin) else s)
        for i, s in enumerate(program.stages)
        if isinstance(s, (ExchangeBegin, DataExchange))
    }
    processes = [
        ProcessSpec(rank, _make_body(program, rank, groups), store=stores[rank])
        for rank in range(program.nprocs)
    ]
    system = System(processes)

    pairs: set[tuple[int, int]] = set()
    for op in program.exchanges():
        pairs |= op.message_pairs()
    for src, dst in sorted(pairs):
        system.add_channel(exchange_channel_name(src, dst), src, dst)
    return system
