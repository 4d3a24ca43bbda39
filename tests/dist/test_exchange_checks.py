"""The transform's receive checks, on every engine.

A rank receiving an exchange message checks the stage token (both
sides must agree on which exchange this is) and the value count (one
value per assignment from that sender) before writing anything.  On
the in-process engines the check reads the queued payload dict; on the
process engines it reads the array-message header, before any frame.
Either way a diverged sender fails the receiver with a
``RefinementError`` naming rank, source and stage.

The receive lands values in target views bound once per run; a local
block that assigns a target variable anew must be seen, so the next
message lands in the new array.
"""

import numpy as np
import pytest

from repro.errors import ProcessFailedError, RefinementError
from repro.refinement import (
    AddressSpace,
    DataExchange,
    SimulatedParallelProgram,
    VarRef,
    to_parallel_system,
)
from repro.runtime import ENGINE_NAMES, ProcessSpec, System, make_engine
from repro.util import bitwise_equal_arrays


def one_exchange_system(sender_body):
    """``P1.g := P0.u[0:2]`` through the transform, with rank 0's body
    replaced by ``sender_body``."""
    prog = SimulatedParallelProgram(2, name="one-exchange")
    prog.exchange(
        DataExchange(name="x").assign(
            VarRef(1, "g"), VarRef(0, "u", (slice(0, 2),))
        )
    )
    stores = [{"u": np.arange(4.0)}, {"g": np.zeros(2)}]
    transformed = to_parallel_system(prog, initial_stores=stores, validate=False)
    system = System(
        [
            ProcessSpec(0, sender_body, store=stores[0]),
            transformed.processes[1],
        ]
    )
    system.add_channel("dx_0_1", 0, 1)
    return system


def wrong_stage(ctx):
    ctx.send("dx_0_1", {"stage": 7, "values": [np.ones(2)]})


def wrong_count(ctx):
    ctx.send("dx_0_1", {"stage": 0, "values": [np.ones(2), np.ones(2)]})


def run_once(name, system):
    engine = make_engine(name)
    try:
        return engine.run(system)
    finally:
        getattr(engine, "close", lambda: None)()


@pytest.mark.parametrize("name", ENGINE_NAMES)
@pytest.mark.parametrize(
    "sender, text",
    [
        (
            wrong_stage,
            "rank 1 expected exchange stage 0 from 0, got 7; the "
            "transformed program's stage sequences have diverged",
        ),
        (wrong_count, "rank 1 expected 1 values from 0 at stage 0, got 2"),
    ],
    ids=["stage-token", "value-count"],
)
def test_a_diverged_sender_fails_the_receiver(name, sender, text):
    with pytest.raises(ProcessFailedError) as info:
        run_once(name, one_exchange_system(sender))
    error = info.value
    assert error.rank == 1
    assert isinstance(error.original, RefinementError)
    assert str(error.original) == text


def refreshing_program(nprocs=3, width=6, steps=4):
    """A ring shift whose absorbing block assigns the ghost variable a
    new array after every receive."""
    prog = SimulatedParallelProgram(nprocs, name="refresh")
    for step in range(steps):
        exch = DataExchange(name=f"shift{step}")
        for r in range(nprocs):
            exch.assign(
                VarRef(r, "ghost"),
                VarRef((r - 1) % nprocs, "u", (slice(width - 2, width),)),
            )
        prog.exchange(exch)

        def absorb(space, rank):
            space["u"][:2] += space["ghost"]
            space["ghost"] = np.zeros(2)

        prog.spmd(absorb, name=f"absorb{step}")
    return prog


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_a_reassigned_target_is_landed_in_its_new_array(name):
    prog = refreshing_program()
    initial = [
        {"u": np.arange(6.0) * (r + 1), "ghost": np.zeros(2)} for r in range(3)
    ]
    expected = prog.run(
        stores=[
            AddressSpace({k: v.copy() for k, v in s.items()}, owner=r)
            for r, s in enumerate(initial)
        ]
    )
    system = to_parallel_system(prog, initial_stores=initial)
    result = run_once(name, system)
    for r in range(3):
        assert bitwise_equal_arrays(result.stores[r]["u"], expected[r]["u"])
        assert not result.stores[r]["ghost"].any()
