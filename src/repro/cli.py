"""Experiment runners: ``python -m repro <experiment>``.

Each experiment regenerates one artifact of the paper's evaluation (see
DESIGN.md's experiment index):

* ``e1``       — correctness, near field (identical results)
* ``e2``       — correctness, far field (reordered sums differ; Kahan fix)
* ``table1``   — modeled Table 1 (Version C on the network of Suns)
* ``figure2``  — modeled Figure 2 (Version A on the IBM SP)
* ``theorem1`` — determinacy experiments (E5)
* ``figure1``  — parallel vs simulated-parallel trace correspondence
* ``effort``   — mechanical-edit counts vs the paper's person-days (E7)
* ``ablations``— A1 ordering, A2 reduction topology, A3 decomposition
* ``rcs``      — far-zone fields / RCS proxy derived from the potentials
* ``all``      — everything above, in order

``stats <e1|e2>`` runs one experiment's parallel program with the
observability layer on (see docs/OBSERVABILITY.md): per-process
compute/blocked time, per-channel traffic and queue high-water marks,
rank x rank communication matrices, measured-vs-modeled comparison,
and Chrome-trace + JSONL exports.  Both ``stats`` and ``trace`` accept
``--overlap`` (instrument the overlapped shell/interior program; see
docs/ENGINES.md "Overlap refinement") and ``--backend numpy|cupy``.

``trace <e1|e2>`` runs one experiment with causal tracing on (Lamport
clocks carried in every message; see docs/OBSERVABILITY.md "Causal
tracing") and renders the merged happens-before timeline — the Figure 1
picture recovered from a *real* distributed run.  Options: ``--pshape
AxBxC``, ``--engine NAME``, ``--hosts host:port,...``, ``--out FILE``
(causal-trace JSON), ``--chrome FILE`` (Chrome trace with flow-event
arrows), ``--limit N`` (timeline rows printed).

``e1``, ``e2`` and ``stats`` accept ``--engine
cooperative|threaded|multiprocess|multiprocess+pool|socket`` to choose
the execution backend for their message-passing runs.  For the socket
engine, ``--hosts host:port,...`` points at externally started worker
daemons (default: the engine spawns loopback daemons itself).

``explore`` runs the schedule-space explorer (see docs/EXPLORATION.md):
bounded DFS or seeded random walks over a named target's maximal
interleavings, checking every explored schedule for the Theorem 1
contract, optionally under an injected fault plan (``--faults
kill:RANK@STEP,delay:CHANNEL#INDEX[~HOLD]``).  Key options:
``--target NAME[,NAME...]`` (``--list`` shows them), ``--strategy
dfs|walk``, ``--schedules N``, ``--max-steps N``, ``--engine
multiprocess|socket`` (real-``SIGKILL`` fault sweep), ``--replay
FILE`` (re-execute a violation artifact), ``--expect-violation``
(conviction mode for the racy fixture).

``worker-daemon`` runs the long-lived per-host daemon of the cross-host
transport (see docs/ENGINES.md "Cross-host transport"): ``python -m
repro worker-daemon --host 0.0.0.0 --port 9001`` on each machine, then
``--engine socket --hosts hostA:9001,hostB:9001`` on the coordinator —
or point a :class:`~repro.dist.fleet.FleetScheduler` at the same
daemons.  ``--stats-interval S`` prints the daemon's telemetry
counters (the same snapshot remote ``stats`` pollers see) every S
seconds.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["main"]


def _header(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{bar}\n{title}\n{bar}\n"


# ---------------------------------------------------------------------------
# E1 — near-field correctness
# ---------------------------------------------------------------------------


def _engine_kwargs(engine_name: str | None, hosts: str | None) -> dict:
    """``--hosts`` is only meaningful for the socket engine."""
    if hosts and (engine_name or "").startswith("socket"):
        return {"hosts": hosts}
    return {}


def _e1_config():
    """E1's problem (Version A): a lossy dielectric box, Mur boundary."""
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        Material,
        MaterialGrid,
        PointSource,
        YeeGrid,
    )

    grid = YeeGrid(shape=(17, 15, 13))
    mats = MaterialGrid(grid).add_box(
        (6, 5, 4), (11, 10, 8), Material(eps_r=4.0, sigma_e=0.02)
    )
    return FDTDConfig(
        grid=grid,
        steps=16,
        boundary="mur1",
        materials=mats,
        sources=[PointSource("ez", (4, 7, 6), GaussianPulse(delay=10, spread=3))],
    )


def _e2_config():
    """E2's problem (Version C): ``(FDTDConfig, NTFFConfig)``."""
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        NTFFConfig,
        PointSource,
        YeeGrid,
    )

    config = FDTDConfig(
        grid=YeeGrid(shape=(16, 15, 14)),
        steps=24,
        sources=[PointSource("ez", (8, 7, 7), GaussianPulse(delay=10, spread=3))],
    )
    return config, NTFFConfig(gap=3)


def run_e1(
    out=print, engine_name: str | None = None, hosts: str | None = None
) -> bool:
    from repro.apps.fdtd import COMPONENTS, VersionA, build_parallel_fdtd
    from repro.runtime import make_engine
    from repro.util import bitwise_equal_arrays, format_table

    engine = make_engine(
        engine_name or "threaded", **_engine_kwargs(engine_name, hosts)
    )
    _closing = getattr(engine, "close", lambda: None)
    out(_header("E1: near-field correctness (paper section 4.5)"))
    out(f"message-passing engine: {engine.name}\n")
    config = _e1_config()
    seq = VersionA(config).run()
    rows = []
    all_ok = True
    try:
        for pshape in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)]:
            par = build_parallel_fdtd(config, pshape, version="A")
            sim = par.run_simulated()
            sim_fields = par.host_fields(sim)
            sim_ok = all(
                bitwise_equal_arrays(sim_fields[c], seq.fields[c])
                for c in COMPONENTS
            )
            msg = engine.run(par.to_parallel())
            msg_ok = all(
                bitwise_equal_arrays(
                    np.asarray(msg.stores[par.host][c]),
                    np.asarray(sim[par.host][c]),
                )
                for c in COMPONENTS
            )
            all_ok &= sim_ok and msg_ok
            rows.append(
                [
                    f"{pshape}",
                    "identical" if sim_ok else "DIFFERS",
                    "identical" if msg_ok else "DIFFERS",
                ]
            )
    finally:
        _closing()
    out(
        format_table(
            [
                "process grid",
                "simulated-parallel vs sequential",
                "message-passing vs simulated",
            ],
            rows,
        )
    )
    out(
        "\npaper: 'the sequential simulated-parallel version produced "
        "results identical to those of the original sequential code' "
        "(near field), and 'the message-passing programs produced results "
        "identical to those of the corresponding sequential "
        "simulated-parallel versions, on the first and every execution'."
    )
    return all_ok


# ---------------------------------------------------------------------------
# E2 — far-field associativity
# ---------------------------------------------------------------------------


def run_e2(
    out=print, engine_name: str | None = None, hosts: str | None = None
) -> bool:
    from repro.apps.fdtd import COMPONENTS, VersionC, build_parallel_fdtd
    from repro.runtime import make_engine
    from repro.numerics import (
        dynamic_range,
        reordering_report,
        wide_dynamic_range_values,
    )
    from repro.util import (
        bitwise_equal_arrays,
        format_table,
        max_rel_diff,
    )

    out(_header("E2: far-field associativity failure (paper section 4.5)"))
    config, ntff = _e2_config()
    seq = VersionC(config, ntff).run()
    engine = (
        make_engine(engine_name, **_engine_kwargs(engine_name, hosts))
        if engine_name
        else None
    )
    if engine is not None:
        out(f"message-passing engine: {engine.name}\n")

    rows = []
    ok = True
    for pshape in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]:
        par = build_parallel_fdtd(config, pshape, version="C", ntff=ntff)
        sim = par.run_simulated()
        A, F = par.host_potentials(sim)
        if engine is not None:
            # The transform run on a real backend must agree with the
            # simulated run bit-for-bit — near fields AND far-field
            # potentials (the reduce order is fixed, so even the
            # "wrong" reordered sum is reproducibly wrong).
            msg = engine.run(par.to_parallel())
            mA, mF = par.host_potentials(msg.stores)
            msg_ok = all(
                bitwise_equal_arrays(
                    np.asarray(msg.stores[par.host][c]),
                    np.asarray(sim[par.host][c]),
                )
                for c in COMPONENTS
            )
            msg_ok &= bitwise_equal_arrays(mA, A)
            msg_ok &= bitwise_equal_arrays(mF, F)
            if not msg_ok:
                out(f"  {pshape}: {engine.name} run DIFFERS from simulated")
            ok &= msg_ok
        near_ok = all(
            bitwise_equal_arrays(
                np.asarray(sim[par.host][c]), seq.fields[c]
            )
            for c in COMPONENTS
        )
        bitA = bitwise_equal_arrays(A, seq.vector_potential_A)
        rel = max(
            max_rel_diff(A, seq.vector_potential_A),
            max_rel_diff(F, seq.vector_potential_F),
        )
        nprocs = int(np.prod(pshape))
        expect_identical = nprocs == 1
        ok &= near_ok and (bitA == expect_identical)
        rows.append(
            [
                f"{pshape}",
                "identical" if near_ok else "DIFFERS",
                "identical" if bitA else f"differs (max rel {rel:.1e})",
            ]
        )
    if engine is not None:
        getattr(engine, "close", lambda: None)()
    out(
        format_table(
            ["process grid", "near field vs sequential", "far field vs sequential"],
            rows,
        )
    )

    out("\nWhy (footnote 2): dynamic range of the far-field summands —")
    # Collect actual step-0..N contributions magnitude proxy: use the
    # sequential potentials' nonzero bins as a magnitude sample.
    sample = seq.vector_potential_A[np.abs(seq.vector_potential_A) > 0]
    if sample.size:
        out("  " + dynamic_range(sample).describe())

    out(
        "\nThe 'more sophisticated strategy' (compensated summation) "
        "restores reproducibility:"
    )
    values = wide_dynamic_range_values(4096, orders=14)
    report = reordering_report(values, parts_list=(1, 2, 4, 8))
    out(report.describe())
    ok &= report.max_kahan_discrepancy() < report.max_reordering_discrepancy()
    return ok


# ---------------------------------------------------------------------------
# Table 1 / Figure 2
# ---------------------------------------------------------------------------


def run_table1(out=print) -> bool:
    from repro.perfmodel import table1_report

    out(_header("Table 1 (modeled substitution — see DESIGN.md)"))
    out(table1_report())
    return True


def run_figure2(out=print) -> bool:
    from repro.perfmodel import figure2_report

    out(_header("Figure 2 (modeled substitution — see DESIGN.md)"))
    out(figure2_report())
    return True


# ---------------------------------------------------------------------------
# E5 — Theorem 1
# ---------------------------------------------------------------------------


def run_theorem1(out=print) -> bool:
    from repro.runtime import (
        CooperativeEngine,
        ProcessSpec,
        RoundRobinPolicy,
        RunToBlockPolicy,
        System,
    )
    from repro.theory import (
        check_determinacy,
        enumerate_interleavings,
        permute_interleaving,
    )
    from repro.theory.violations import (
        finite_slack_system,
        nondeterministic_body_system,
        shared_variable_system,
    )

    out(_header("E5: Theorem 1 — determinacy of SRSW-channel systems"))
    ok = True

    def stencil_ring():
        # A miniature of the FDTD exchange/compute cycle on a ring.
        def body(ctx):
            import numpy as _np

            u = _np.arange(4.0) + ctx.rank
            right = (ctx.rank + 1) % ctx.nprocs
            for _ in range(3):
                ctx.send(f"r{ctx.rank}", u[-1])
                ghost = ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")
                u[0] = 0.5 * (u[0] + ghost)
            ctx.store["u"] = u

        system = System([ProcessSpec(r, body) for r in range(4)])
        for r in range(4):
            system.add_channel(f"r{r}", r, (r + 1) % 4)
        return system

    report = check_determinacy(stencil_ring, n_random=12, threaded_runs=3)
    out("stencil ring (conforming): " + report.summary())
    ok &= report.determinate

    # Exhaustive enumeration of a small exchange.
    def two_proc_exchange():
        def body(ctx):
            other = 1 - ctx.rank
            ctx.send(f"c{ctx.rank}", ctx.rank * 10)
            ctx.store["got"] = ctx.recv(f"c{other}")

        system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
        system.add_channel("c0", 0, 1)
        system.add_channel("c1", 1, 0)
        return system

    enum = enumerate_interleavings(two_proc_exchange())
    out(f"exhaustive enumeration (2-proc exchange): {enum.summary()}")
    ok &= enum.determinate

    from repro.theory import enumerate_reduced

    reduced = enumerate_reduced(two_proc_exchange())
    out(
        "partial-order reduction (sleep sets): "
        f"{reduced.visited} representative of {enum.interleavings} "
        "interleavings suffices"
    )
    ok &= reduced.determinate and reduced.visited <= enum.interleavings

    # Constructive permutation (the proof technique).
    r1 = CooperativeEngine(RoundRobinPolicy(), trace=True).run(two_proc_exchange())
    r2 = CooperativeEngine(RunToBlockPolicy(), trace=True).run(two_proc_exchange())
    cert = permute_interleaving(r1.trace, r2.trace)
    out("permutation certificate: " + cert.summary())

    # Canonical form: every interleaving of a conforming system has the
    # same Foata normal form (one Mazurkiewicz trace class).
    from repro.theory import foata_normal_form

    f1 = foata_normal_form(r1.trace)
    f2 = foata_normal_form(r2.trace)
    ok &= f1 == f2
    out(
        f"canonical (Foata) form identical across schedules: {f1 == f2} "
        f"— {f1.total_events} events, critical path {f1.depth}, "
        f"peak parallelism {f1.width}"
    )

    out("\nhypothesis violations (each breaks determinacy):")
    for name, factory in [
        ("shared variables", lambda: shared_variable_system(5)),
        ("nondeterministic body", lambda: nondeterministic_body_system(4)),
        ("finite slack", lambda: finite_slack_system(6)),
    ]:
        vr = check_determinacy(factory, n_random=6, threaded_runs=0)
        out(f"  {name}: {vr.summary().splitlines()[0]}")
        ok &= not vr.determinate
    return ok


# ---------------------------------------------------------------------------
# Figure 1 — trace correspondence
# ---------------------------------------------------------------------------


def run_figure1(out=print) -> bool:
    from repro.runtime import (
        CooperativeEngine,
        ProcessSpec,
        SendsFirstPolicy,
        System,
        ThreadedEngine,
    )
    from repro.theory.events import check_same_action_sequences

    out(_header("Figure 1: parallel vs simulated-parallel correspondence"))

    def make_system():
        def body(ctx):
            other = 1 - ctx.rank
            ctx.step("compute")
            ctx.send(f"c{ctx.rank}", ctx.rank)
            got = ctx.recv(f"c{other}")
            ctx.step("compute")
            ctx.store["got"] = got

        system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
        system.add_channel("c0", 0, 1)
        system.add_channel("c1", 1, 0)
        return system

    par = ThreadedEngine(trace=True).run(make_system())
    sim = CooperativeEngine(SendsFirstPolicy(), trace=True).run(make_system())
    out("real parallel (threaded, observed order):")
    out(par.trace.render())
    out("\nsimulated parallel (sends-first schedule):")
    out(sim.trace.render())
    same = check_same_action_sequences(par.trace, sim.trace)
    out(
        f"\nper-process action sequences identical: {same}; "
        f"final states equal: {par.stores == sim.stores}"
    )
    return same and par.stores == sim.stores


# ---------------------------------------------------------------------------
# E7 — effort metrics
# ---------------------------------------------------------------------------


def run_effort(out=print) -> bool:
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        NTFFConfig,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )
    from repro.refinement import TransformationMetrics
    from repro.util import format_table

    out(_header("E7: effort — paper person-days vs mechanical-edit counts"))
    out(
        "paper (section 4.5): Version C: 2 days strategy + 8 days to\n"
        "simulated-parallel + <1 day to message passing; Version A: <1 + 5\n"
        "+ <1 days.  The final (formally justified) step was the cheapest\n"
        "— here it is literally a function call (to_parallel_system).\n"
    )
    grid = YeeGrid(shape=(12, 12, 12))
    config = FDTDConfig(
        grid=grid,
        steps=8,
        sources=[PointSource("ez", (6, 6, 6), GaussianPulse(delay=8, spread=3))],
    )
    rows = []
    for version in ("A", "C"):
        par = build_parallel_fdtd(
            config,
            (2, 2, 1),
            version=version,
            ntff=NTFFConfig(gap=3) if version == "C" else None,
        )
        metrics = TransformationMetrics.from_program(par.builder.build())
        rows.append(
            [
                f"Version {version} (P=4+host)",
                str(metrics.stages),
                str(metrics.exchanges),
                str(metrics.assignments),
                str(metrics.message_pairs),
                str(metrics.channels),
            ]
        )
    out(
        format_table(
            [
                "program",
                "stages",
                "exchanges",
                "assignments",
                "messages/run",
                "channels",
            ],
            rows,
        )
    )
    return True


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def run_ablations(out=print) -> bool:
    from repro.apps.fdtd.update import H_GHOST_FACES
    from repro.archetypes.mesh import BlockDecomposition
    from repro.errors import DeadlockError
    from repro.perfmodel import SUN_ETHERNET, exchange_comm_volume
    from repro.runtime import (
        CooperativeEngine,
        ProcessSpec,
        SendsFirstPolicy,
        System,
    )
    from repro.util import format_table

    out(_header("Ablations"))
    ok = True

    # A1 — ordering: receives-first deadlocks, sends-first cannot.
    out("A1: data-exchange ordering (sends before receives)")

    def recv_first_exchange():
        def body(ctx):
            other = 1 - ctx.rank
            got = ctx.recv(f"c{other}")  # WRONG ORDER
            ctx.send(f"c{ctx.rank}", ctx.rank)
            ctx.store["got"] = got

        system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
        system.add_channel("c0", 0, 1)
        system.add_channel("c1", 1, 0)
        return system

    try:
        CooperativeEngine().run(recv_first_exchange())
        out("  recv-first: unexpectedly completed")
        ok = False
    except DeadlockError as exc:
        out(f"  recv-first: DEADLOCK as predicted ({len(exc.waiting)} blocked)")

    def send_first_exchange():
        def body(ctx):
            other = 1 - ctx.rank
            ctx.send(f"c{ctx.rank}", ctx.rank)
            ctx.store["got"] = ctx.recv(f"c{other}")

        system = System([ProcessSpec(0, body), ProcessSpec(1, body)])
        system.add_channel("c0", 0, 1)
        system.add_channel("c1", 1, 0)
        return system

    CooperativeEngine(SendsFirstPolicy()).run(send_first_exchange())
    out("  sends-first: completes under every schedule (Theorem 1's recipe)")

    # A2 — reduction topology.
    out("\nA2: reduction topology (all-to-one/one-to-all vs recursive doubling)")
    rows = []
    for p in (4, 8, 16, 32):
        a2o_msgs = 2 * (p - 1)  # gather + broadcast tree-less
        rd_msgs = p * int(np.log2(p)) if (p & (p - 1)) == 0 else None
        lat = SUN_ETHERNET.latency
        a2o_t = 2 * (p - 1) * lat  # serialised at root
        rd_t = int(np.log2(p)) * 2 * lat
        rows.append(
            [str(p), str(a2o_msgs), f"{a2o_t*1e3:.1f} ms", str(rd_msgs), f"{rd_t*1e3:.1f} ms"]
        )
    out(
        format_table(
            ["P", "a2o msgs", "a2o latency", "rd msgs", "rd critical path"],
            rows,
        )
    )

    # A3 — decomposition shape.
    out("\nA3: process-grid shape for the 33^3 node grid (exchange bytes/step)")
    rows = []
    for pshape in [(8, 1, 1), (4, 2, 1), (2, 2, 2)]:
        d = BlockDecomposition((34, 34, 34), pshape, ghost=1)
        vol = exchange_comm_volume(d, 3, 4, faces=H_GHOST_FACES)
        rows.append(
            [str(pshape), str(vol.total_messages), f"{vol.total_bytes/1e3:.1f} kB"]
        )
    out(format_table(["process grid", "messages", "bytes per phase"], rows))
    out("  (balanced 3-D blocks minimise surface, as choose_process_grid picks)")
    return ok


# ---------------------------------------------------------------------------
# Far fields / RCS (derived observable, section 4.1's "e.g., for radar
# cross section computations")
# ---------------------------------------------------------------------------


def run_rcs(out=print) -> bool:
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        Material,
        MaterialGrid,
        NTFFConfig,
        PointSource,
        VersionC,
        YeeGrid,
        far_field_energy,
        far_field_signal,
        rcs_proxy,
    )
    from repro.util import format_table

    out(_header("Far-zone fields / RCS proxy (derived from the potentials)"))
    grid = YeeGrid(shape=(18, 18, 18))
    scatterer = MaterialGrid(grid).add_pec_box((11, 7, 7), (14, 12, 12))
    waveform = GaussianPulse(delay=10, spread=3)
    config = FDTDConfig(
        grid=grid,
        steps=40,
        boundary="mur1",
        materials=scatterer,
        sources=[PointSource("ez", (5, 9, 9), waveform)],
    )
    directions = np.array(
        [
            [1.0, 0.0, 0.0],  # forward (through the scatterer)
            [-1.0, 0.0, 0.0],  # back toward the source
            [0.0, 1.0, 0.0],  # broadside
            [0.0, 0.0, 1.0],  # along the dipole axis (null)
        ]
    )
    ntff = NTFFConfig(gap=3, directions=directions)
    result = VersionC(config, ntff).run()
    sig = far_field_signal(
        result.vector_potential_A,
        result.vector_potential_F,
        directions,
        dt=grid.dt,
    )
    incident = np.array([waveform(n) for n in range(config.steps)])
    sigma = rcs_proxy(sig, grid.dt, incident)
    energy = far_field_energy(sig, grid.dt)
    labels = ["+x forward", "-x backscatter", "+y broadside", "+z dipole axis"]
    rows = [
        [label, f"{e:.3e}", f"{s:.3e}"]
        for label, e, s in zip(labels, energy, sigma)
    ]
    out(
        format_table(
            ["direction", "radiated energy density", "RCS proxy"], rows
        )
    )
    # A z-directed dipole has a radiation null along z.
    ok = energy[3] < 0.2 * max(energy[:3])
    out(
        "\n(the +z direction sits in the z-dipole's radiation null — "
        f"{'confirmed' if ok else 'NOT confirmed'})"
    )
    return bool(ok)


# ---------------------------------------------------------------------------
# stats — instrumented run + observability report (see docs/OBSERVABILITY.md)
# ---------------------------------------------------------------------------


def _stats_build(
    experiment: str,
    pshape: tuple[int, ...],
    overlap: bool = False,
    backend: str = "numpy",
):
    """Build the ParallelFDTD handle for one stats-able experiment."""
    from repro.apps.fdtd import build_parallel_fdtd

    if experiment == "e1":
        return build_parallel_fdtd(
            _e1_config(), pshape, version="A", overlap=overlap, backend=backend
        )
    if experiment == "e2":
        config, ntff = _e2_config()
        return build_parallel_fdtd(
            config,
            pshape,
            version="C",
            ntff=ntff,
            overlap=overlap,
            backend=backend,
        )
    raise ValueError(
        f"stats supports experiments 'e1' and 'e2', not {experiment!r}"
    )


def run_stats(args: list[str], out=print) -> bool:
    """``python -m repro stats <e1|e2> [options]`` — run the experiment's
    parallel program once with instrumentation on, print the run summary
    (per-process compute/blocked split, per-channel traffic and queue
    high-water marks, rank x rank communication matrices, per-phase
    timings) and the measured-vs-modeled communication comparison, and
    export the run as Chrome trace JSON + JSONL.

    Options: ``--pshape AxBxC`` (default 2x2x1), ``--engine
    cooperative|threaded|multiprocess|multiprocess+pool|socket``
    (default threaded), ``--hosts host:port,...`` (socket engine:
    external worker daemons), ``--overlap`` (run the overlapped
    shell/interior program — the measured-vs-modeled comparison is
    skipped, as the per-variable message model does not describe the
    combined split exchanges), ``--backend numpy|cupy`` (array
    backend), ``--outdir DIR`` (default ``runs``), ``--bench FILE``
    (also write a benchmark baseline JSON).
    """
    import json
    from pathlib import Path

    from repro.obs import fdtd_model_comparison, write_chrome_trace, write_jsonl
    from repro.runtime import make_engine

    experiment = "e1"
    pshape = (2, 2, 1)
    engine_name = "threaded"
    hosts = None
    outdir = Path("runs")
    bench_path = None
    overlap = False
    backend = "numpy"
    rest = list(args)
    if rest and not rest[0].startswith("-"):
        experiment = rest.pop(0)
    while rest:
        flag = rest.pop(0)
        if flag == "--pshape" and rest:
            pshape = tuple(int(p) for p in rest.pop(0).replace(",", "x").split("x"))
        elif flag == "--engine" and rest:
            engine_name = rest.pop(0)
        elif flag == "--hosts" and rest:
            hosts = rest.pop(0)
        elif flag == "--overlap":
            overlap = True
        elif flag == "--backend" and rest:
            backend = rest.pop(0)
        elif flag == "--outdir" and rest:
            outdir = Path(rest.pop(0))
        elif flag == "--bench" and rest:
            bench_path = Path(rest.pop(0))
        else:
            out(f"unknown or incomplete stats option {flag!r}")
            return False

    out(_header(f"stats: instrumented {experiment} run"))
    try:
        par = _stats_build(experiment, pshape, overlap=overlap, backend=backend)
    except ValueError as exc:
        out(str(exc))
        return False
    try:
        engine = make_engine(
            engine_name,
            observe=True,
            backend=backend,
            **_engine_kwargs(engine_name, hosts),
        )
    except ValueError as exc:
        out(str(exc))
        return False

    out(
        f"experiment={experiment}  grid={par.config.grid.shape}  "
        f"steps={par.config.steps}  pshape={pshape}  "
        f"version={par.version}  engine={engine.name}  "
        f"overlap={overlap}  backend={backend}\n"
    )
    try:
        result = engine.run(par.to_parallel())
    finally:
        getattr(engine, "close", lambda: None)()
    report = result.report
    out(report.summary())

    if overlap:
        # The cost model counts one message per variable per exchange;
        # the overlapped program deliberately coalesces each phase's
        # components into one combined split exchange, so the
        # per-variable comparison does not describe it.
        out(
            "\nmeasured vs cost-model predictions: skipped under "
            "--overlap (combined split exchanges are outside the "
            "per-variable message model)"
        )
        agree = True
    else:
        comparison = fdtd_model_comparison(par, report)
        out("\nmeasured vs cost-model predictions (E3/E4 loop closure):")
        out(comparison.table())
        agree = comparison.agreement()
        out(
            "agreement: exact"
            if agree
            else "agreement: MISMATCH — model and implementation have diverged"
        )

    stem = f"stats_{experiment}_{'x'.join(map(str, pshape))}_{engine.name}"
    if overlap:
        stem += "_overlap"
    trace_path = write_chrome_trace(report, outdir / f"{stem}.trace.json")
    jsonl_path = write_jsonl(report, outdir / f"{stem}.jsonl")
    out(f"\nwrote {trace_path} (chrome://tracing / Perfetto)")
    out(f"wrote {jsonl_path} (JSONL event log)")

    if bench_path is not None:
        bench = {
            "experiment": experiment,
            "engine": engine.name,
            "grid_shape": list(par.config.grid.shape),
            "steps": par.config.steps,
            "pshape": list(pshape),
            "overlap": overlap,
            "backend": backend,
            "nprocs": report.nprocs,
            "total_messages": report.total_messages(),
            "total_bytes": report.total_bytes(),
            "model_agreement": agree,
            "model_comparison": [
                {"quantity": q, "measured": m, "modeled": pred}
                for q, m, pred in comparison.rows
            ],
            "channels": {
                ch.name: {
                    "sends": ch.sends,
                    "bytes": ch.bytes_sent,
                    "queue_hwm": ch.queue_hwm,
                }
                for ch in sorted(report.channels, key=lambda c: c.name)
            },
            "wall_time_split": [
                {
                    "rank": p.rank,
                    "name": p.name,
                    "wall_s": round(p.wall, 6),
                    "compute_s": round(p.compute, 6),
                    "blocked_s": round(p.blocked, 6),
                }
                for p in report.processes
            ],
        }
        bench_path.parent.mkdir(parents=True, exist_ok=True)
        bench_path.write_text(json.dumps(bench, indent=2) + "\n")
        out(f"wrote {bench_path} (benchmark baseline)")
    return agree


# ---------------------------------------------------------------------------
# trace — causal (happens-before) tracing across engines
# ---------------------------------------------------------------------------


def run_trace(args: list[str], out=print) -> bool:
    """``python -m repro trace <e1|e2> [options]`` — run the
    experiment's parallel program once with causal tracing on, merge
    the per-rank Lamport-clocked event logs into one happens-before
    partial order, check it (every receive must causally follow its
    send), and render the Figure-1-style timeline.

    Options: ``--pshape AxBxC`` (default 2x2x1), ``--engine
    cooperative|threaded|multiprocess|multiprocess+pool|socket``
    (default multiprocess), ``--hosts host:port,...`` (socket engine:
    external worker daemons), ``--overlap`` (trace the overlapped
    shell/interior program), ``--backend numpy|cupy`` (array backend),
    ``--out FILE`` (write the causal trace as JSON), ``--chrome FILE``
    (write a Chrome trace whose send→recv pairs become flow-event
    arrows), ``--limit N`` (timeline rows printed; default 48,
    0 = all).
    """
    import json
    from pathlib import Path

    from repro.obs import write_chrome_trace
    from repro.runtime import make_engine

    experiment = "e1"
    pshape = (2, 2, 1)
    engine_name = "multiprocess"
    hosts = None
    out_path = None
    chrome_path = None
    limit = 48
    overlap = False
    backend = "numpy"
    rest = list(args)
    if rest and not rest[0].startswith("-"):
        experiment = rest.pop(0)
    while rest:
        flag = rest.pop(0)
        if flag == "--pshape" and rest:
            pshape = tuple(int(p) for p in rest.pop(0).replace(",", "x").split("x"))
        elif flag == "--engine" and rest:
            engine_name = rest.pop(0)
        elif flag == "--hosts" and rest:
            hosts = rest.pop(0)
        elif flag == "--overlap":
            overlap = True
        elif flag == "--backend" and rest:
            backend = rest.pop(0)
        elif flag == "--out" and rest:
            out_path = Path(rest.pop(0))
        elif flag == "--chrome" and rest:
            chrome_path = Path(rest.pop(0))
        elif flag == "--limit" and rest:
            limit = int(rest.pop(0))
        else:
            out(f"unknown or incomplete trace option {flag!r}")
            return False

    out(_header(f"trace: causal {experiment} run"))
    try:
        par = _stats_build(experiment, pshape, overlap=overlap, backend=backend)
    except ValueError as exc:
        out(str(exc))
        return False
    try:
        engine = make_engine(
            engine_name,
            observe=chrome_path is not None,
            trace_causal=True,
            backend=backend,
            **_engine_kwargs(engine_name, hosts),
        )
    except (TypeError, ValueError) as exc:
        out(str(exc))
        return False

    out(
        f"experiment={experiment}  grid={par.config.grid.shape}  "
        f"steps={par.config.steps}  pshape={pshape}  "
        f"version={par.version}  engine={engine.name}  "
        f"overlap={overlap}  backend={backend}\n"
    )
    try:
        result = engine.run(par.to_parallel())
    finally:
        getattr(engine, "close", lambda: None)()
    causal = result.causal
    if causal is None:
        out("engine returned no causal trace")
        return False

    out(causal.render(limit=limit or None))
    pairs = causal.send_recv_pairs()
    violations = causal.validate()
    out(
        f"\n{len(causal)} events, {len(pairs)} matched send->recv edges, "
        f"clock depth {causal.depth}"
    )
    if violations:
        out("happens-before VIOLATIONS:")
        for v in violations:
            out(f"  {v}")
    else:
        out(
            "happens-before check: OK — every receive's clock strictly "
            "exceeds its matching send's"
        )

    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(causal.to_dict(), indent=2) + "\n")
        out(f"wrote {out_path} (causal trace JSON)")
    if chrome_path is not None:
        if result.report is None:
            out("--chrome needs an observed run; engine returned no report")
            return False
        write_chrome_trace(result.report, chrome_path)
        out(f"wrote {chrome_path} (Chrome trace with flow-event arrows)")
    return not violations


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "e1": run_e1,
    "e2": run_e2,
    "table1": run_table1,
    "figure2": run_figure2,
    "theorem1": run_theorem1,
    "figure1": run_figure1,
    "effort": run_effort,
    "ablations": run_ablations,
    "rcs": run_rcs,
}


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    name = args[0]
    if name == "stats":
        return 0 if run_stats(args[1:]) else 1
    if name == "trace":
        return 0 if run_trace(args[1:]) else 1
    if name == "worker-daemon":
        from repro.dist.net.daemon import run_daemon_cli

        return run_daemon_cli(args[1:])
    if name == "explore":
        from repro.explore.cli import run_explore

        return run_explore(args[1:])
    if name in ("e1", "e2"):
        engine_name = None
        hosts = None
        rest = args[1:]
        while rest:
            flag = rest.pop(0)
            if flag == "--engine" and rest:
                engine_name = rest.pop(0)
            elif flag == "--hosts" and rest:
                hosts = rest.pop(0)
            else:
                print(f"unknown or incomplete {name} option {flag!r}")
                return 2
        return 0 if EXPERIMENTS[name](engine_name=engine_name, hosts=hosts) else 1
    if name == "all":
        results = {key: fn() for key, fn in EXPERIMENTS.items()}
        print(_header("summary"))
        for key, good in results.items():
            print(f"  {key:10s} {'OK' if good else 'MISMATCH'}")
        return 0 if all(results.values()) else 1
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; options: {', '.join(EXPERIMENTS)}, all")
        return 2
    return 0 if EXPERIMENTS[name]() else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
