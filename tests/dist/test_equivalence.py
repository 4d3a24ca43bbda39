"""Engine-equivalence matrix: Theorem 1 across execution backends.

The paper's Theorem 1 says a conforming system (deterministic bodies,
SRSW channels, infinite slack) reaches the same final state under every
fair interleaving.  The three engines are three very different
interleaving generators — cooperative scheduling policies, free-running
threads, and genuinely concurrent OS processes — so ``(stores,
returns)`` must agree bitwise across all of them.
"""

import numpy as np
import pytest

from repro.runtime import (
    CooperativeEngine,
    ProcessSpec,
    RandomPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    SendsFirstPolicy,
    System,
    ThreadedEngine,
    make_engine,
)
from repro.util import bitwise_equal_arrays


def stencil_ring():
    """Miniature FDTD exchange/compute cycle on a ring (mirrors the CLI demo)."""

    def body(ctx):
        import numpy as _np

        u = _np.arange(4.0) + ctx.rank
        for _ in range(3):
            ctx.send(f"r{ctx.rank}", u[-1])
            ghost = ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")
            u[0] = 0.5 * (u[0] + ghost)
        ctx.store["u"] = u
        return float(u.sum())

    system = System([ProcessSpec(r, body) for r in range(4)])
    for r in range(4):
        system.add_channel(f"r{r}", r, (r + 1) % 4)
    return system


def two_proc_exchange():
    def body(ctx):
        other = 1 - ctx.rank
        ctx.send(f"c{ctx.rank}", ctx.rank * 10)
        ctx.store["got"] = ctx.recv(f"c{other}")

    system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
    system.add_channel("c0", 0, 1)
    system.add_channel("c1", 1, 0)
    return system


ENGINES = [
    ("cooperative/round-robin", lambda: CooperativeEngine(RoundRobinPolicy())),
    ("cooperative/run-to-block", lambda: CooperativeEngine(RunToBlockPolicy())),
    ("cooperative/sends-first", lambda: CooperativeEngine(SendsFirstPolicy())),
    ("cooperative/random-7", lambda: CooperativeEngine(RandomPolicy(7))),
    ("cooperative/random-23", lambda: CooperativeEngine(RandomPolicy(23))),
    ("threaded", ThreadedEngine),
    ("multiprocess/fork", lambda: make_engine("multiprocess", start_method="fork")),
    ("multiprocess/spawn", lambda: make_engine("multiprocess", start_method="spawn")),
    ("socket/loopback", lambda: make_engine("socket")),
]


def value_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and bitwise_equal_arrays(a, b)
        )
    return a == b


def stores_equal(a, b):
    if len(a) != len(b):
        return False
    for sa, sb in zip(a, b):
        if set(sa) != set(sb):
            return False
        if not all(value_equal(sa[k], sb[k]) for k in sa):
            return False
    return True


@pytest.mark.parametrize("factory", [stencil_ring, two_proc_exchange])
def test_final_state_identical_across_engines(factory):
    reference = ThreadedEngine().run(factory())
    for label, make in ENGINES:
        engine = make()
        try:
            result = engine.run(factory())
        finally:
            getattr(engine, "close", lambda: None)()
        assert stores_equal(result.stores, reference.stores), label
        assert result.returns == reference.returns, label
        assert result.channel_stats == reference.channel_stats, label


def test_channel_accounting_identical_across_engines():
    reference = ThreadedEngine().run(stencil_ring())
    for label, make in ENGINES:
        engine = make()
        try:
            result = engine.run(stencil_ring())
        finally:
            getattr(engine, "close", lambda: None)()
        assert result.channel_stats == reference.channel_stats, label
        # Byte counts use the same payload sizing on every backend.
        assert result.channel_bytes == reference.channel_bytes, label


@pytest.mark.slow
def test_version_a_fdtd_identical_across_engines():
    from repro.apps.fdtd import (
        COMPONENTS,
        FDTDConfig,
        GaussianPulse,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )

    shape = (9, 7, 7)
    config = FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=3,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=10, spread=3),
            )
        ],
    )
    par = build_parallel_fdtd(config, (2, 1, 1), version="A")

    def host_fields(result):
        host = result.stores[par.host]
        return {c: np.asarray(host[c]) for c in COMPONENTS}

    reference = host_fields(ThreadedEngine().run(par.to_parallel()))
    for label, make in ENGINES:
        engine = make()
        try:
            fields = host_fields(engine.run(par.to_parallel()))
        finally:
            getattr(engine, "close", lambda: None)()
        for c in COMPONENTS:
            assert bitwise_equal_arrays(fields[c], reference[c]), (label, c)


@pytest.mark.slow
def test_version_c_fdtd_identical_across_engines():
    """Version C adds the far field: every rank scatters its surface
    currents into store potentials each H phase, and the host reduces
    them in rank order.  Near fields must match the threaded run and the
    reduced potentials the simulated-parallel run, bit for bit, on every
    engine — the process and socket engines run the accumulators from
    their shipped program images."""
    from repro.apps.fdtd import (
        COMPONENTS,
        FDTDConfig,
        GaussianPulse,
        NTFFConfig,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )

    shape = (12, 9, 9)
    config = FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=5,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=3, spread=2),
            )
        ],
    )
    par = build_parallel_fdtd(
        config, (2, 1, 1), version="C", ntff=NTFFConfig(gap=3)
    )
    sim_A, sim_F = par.host_potentials(par.run_simulated())
    assert sim_A.any() and sim_F.any()
    reference = par.host_fields(ThreadedEngine().run(par.to_parallel()).stores)
    for label, make in ENGINES:
        engine = make()
        try:
            stores = engine.run(par.to_parallel()).stores
        finally:
            getattr(engine, "close", lambda: None)()
        fields = par.host_fields(stores)
        for c in COMPONENTS:
            assert bitwise_equal_arrays(fields[c], reference[c]), (label, c)
        A, F = par.host_potentials(stores)
        assert bitwise_equal_arrays(A, sim_A), (label, "ffA_total")
        assert bitwise_equal_arrays(F, sim_F), (label, "ffF_total")


def ghost_exchange_counts(counts, host):
    """Sum of ``counts`` over rank-to-rank ``dx_{src}_{dst}`` channels.
    The transform also routes the end-of-run collect over ``dx_*``
    channels with the host rank at one end; batching does not coalesce
    those."""
    total = 0
    for name, n in counts.items():
        if name.startswith("dx_"):
            src, dst = map(int, name[len("dx_"):].split("_"))
            if host not in (src, dst):
                total += n
    return total


@pytest.mark.slow
def test_batched_exchanges_identical_across_fast_paths():
    """The batched ghost exchange, on threads and on OS processes, must
    reproduce the threaded result of the *unbatched* program bitwise —
    batching and transport are pure plumbing — in exactly half the
    ghost-exchange messages: each phase ships two footprint components
    per inter-rank face, batched into one message.  On the wire the same
    array frames cross behind half the headers."""
    from repro.apps.fdtd import (
        COMPONENTS,
        FDTDConfig,
        GaussianPulse,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )

    shape = (9, 7, 7)
    config = FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=3,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=10, spread=3),
            )
        ],
    )
    plain = build_parallel_fdtd(config, (2, 1, 1), version="A")
    batched = build_parallel_fdtd(
        config, (2, 1, 1), version="A", batch_exchanges=True
    )

    def host_fields(par, result):
        host = result.stores[par.host]
        return {c: np.asarray(host[c]) for c in COMPONENTS}

    def dx(result, par):
        """(messages, wire frames) on the ghost-exchange channels."""
        sends = {k: v[0] for k, v in result.channel_stats.items()}
        return (
            ghost_exchange_counts(sends, par.host),
            ghost_exchange_counts(result.channel_frames, par.host),
        )

    reference = host_fields(plain, ThreadedEngine().run(plain.to_parallel()))

    variants = [
        ("threaded/batched", ThreadedEngine()),
        ("mp/batched", make_engine("multiprocess", start_method="fork")),
    ]
    for label, engine in variants:
        result = engine.run(batched.to_parallel())
        fields = host_fields(batched, result)
        for c in COMPONENTS:
            assert bitwise_equal_arrays(fields[c], reference[c]), (label, c)
        if label.startswith("mp"):
            assert sum(result.channel_shm_bytes.values()) == 0
            msgs, frames = dx(result, batched)
            plain_msgs, plain_frames = dx(
                engine.run(plain.to_parallel()), plain
            )
            assert msgs > 0, label
            assert plain_msgs == 2 * msgs, label
            # A header per message, then the same array frames.
            assert plain_frames - plain_msgs == frames - msgs > 0, label
        getattr(engine, "close", lambda: None)()
