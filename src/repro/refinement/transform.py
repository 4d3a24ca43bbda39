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


def _begin_exchange(
    ctx, space: AddressSpace, stage_index: int, op: DataExchange
) -> list[tuple[Any, Any]]:
    """Phases 1-2 of one rank's share of an exchange: stage every read
    against the pre-state and launch every send.  Returns the staged
    intra-rank assignments for :func:`_finish_exchange`."""
    rank = ctx.rank

    # Phase 1 — stage all reads against the pre-state.
    outgoing: dict[int, list[Any]] = {}
    for dest, a in op.sends_from(rank):
        outgoing.setdefault(dest, []).append(
            space.read_region(a.src.var, a.src.region)
        )
    local_staged: list[tuple[Any, Any]] = []
    for a in op.local_assignments(rank):
        local_staged.append((a, space.read_region(a.src.var, a.src.region)))

    # Phase 2 — all sends (combined: one message per receiver).
    for dest in sorted(outgoing):
        ctx.send(
            exchange_channel_name(rank, dest),
            {"stage": stage_index, "values": outgoing[dest]},
        )
    return local_staged


def _finish_exchange(
    ctx,
    space: AddressSpace,
    stage_index: int,
    op: DataExchange,
    local_staged: list[tuple[Any, Any]],
) -> None:
    """Phases 3-4: the local writes, then all receives.

    ``stage_index`` is the index of the stage that *sent* — for an
    unsplit exchange its own index, for a split pair the begin stage's —
    so the stage token in the payload still proves both sides agree on
    which exchange this is.
    """
    rank = ctx.rank

    # Phase 3 — local writes.
    for a, value in local_staged:
        space.write_region(a.dst.var, a.dst.region, value)

    # Phase 4 — all receives (one combined message per sender), then
    # unpack in assignment order, which both sides derive identically
    # from the exchange definition.
    recvs = op.recvs_to(rank)
    by_source: dict[int, list[Any]] = {}
    for source, a in recvs:
        by_source.setdefault(source, []).append(a)
    for source in sorted(by_source):
        payload = ctx.recv(exchange_channel_name(source, rank))
        if payload["stage"] != stage_index:
            raise RefinementError(
                f"rank {rank} expected exchange stage {stage_index} from "
                f"{source}, got {payload['stage']}; the transformed "
                "program's stage sequences have diverged"
            )
        values = payload["values"]
        targets = by_source[source]
        if len(values) != len(targets):
            raise RefinementError(
                f"rank {rank} expected {len(targets)} values from "
                f"{source} at stage {stage_index}, got {len(values)}"
            )
        for a, value in zip(targets, values):
            space.write_region(a.dst.var, a.dst.region, value)


def _perform_exchange(
    ctx, space: AddressSpace, stage_index: int, op: DataExchange
) -> None:
    """One rank's share of one (unsplit) data-exchange operation."""
    local_staged = _begin_exchange(ctx, space, stage_index, op)
    _finish_exchange(ctx, space, stage_index, op, local_staged)


def _make_body(program: SimulatedParallelProgram, rank: int):
    """The parallel process body for one rank: the program's stages,
    restricted to this rank's share of each.

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

    def body(ctx) -> None:
        space = AddressSpace.wrap(ctx.store, owner=rank)
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
                        ctx, space, stage_index, stage.op
                    )
            elif isinstance(stage, ExchangeEnd):
                token = end_to_begin[stage_index]
                with ctx.span(stage.name, cat="exchange"):
                    _finish_exchange(
                        ctx, space, token, stage.op, pending.pop(token)
                    )
            else:
                with ctx.span(stage.name, cat="exchange"):
                    _perform_exchange(ctx, space, stage_index, stage)

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

    processes = [
        ProcessSpec(rank, _make_body(program, rank), store=stores[rank])
        for rank in range(program.nprocs)
    ]
    system = System(processes)

    pairs: set[tuple[int, int]] = set()
    for op in program.exchanges():
        pairs |= op.message_pairs()
    for src, dst in sorted(pairs):
        system.add_channel(exchange_channel_name(src, dst), src, dst)
    return system
