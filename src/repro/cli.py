"""Experiment runners: ``python -m repro <command> [options]``.

Each paper experiment is a runner that returns a :class:`Record` (its
tables, notes, values and verdict); :func:`render` prints any record.

One ``argparse`` parser (:func:`_build_parser`) defines every command
and every option; what follows is its ``--help`` output, top level
first and then each command that takes options (``e2`` takes ``e1``'s),
appended at import so it cannot drift from the parsers.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.runtime import ENGINE_NAMES, make_engine
from repro.util import Table

__all__ = ["main"]


def _header(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{bar}\n{title}\n{bar}\n"


# ---------------------------------------------------------------------------
# The FDTD experiments' programs and engine, built from parsed options
# ---------------------------------------------------------------------------


def _e1_problem() -> dict:
    """E1's problem (Version A): a lossy dielectric box, Mur boundary —
    as :func:`~repro.apps.fdtd.build_parallel_fdtd` keywords."""
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
    config = FDTDConfig(
        grid=grid,
        steps=16,
        boundary="mur1",
        materials=mats,
        sources=[PointSource("ez", (4, 7, 6), GaussianPulse(delay=10, spread=3))],
    )
    return dict(config=config, version="A")


def _e2_problem() -> dict:
    """E2's problem (Version C), likewise."""
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
    return dict(config=config, version="C", ntff=NTFFConfig(gap=3))


@contextlib.contextmanager
def _build_run(args, grids, **engine_opts):
    """What one ``e1`` / ``e2`` / ``stats`` / ``trace`` invocation runs:
    ``(pars, engine)``.

    ``pars`` holds one :class:`~repro.apps.fdtd.ParallelFDTD` of
    ``args.experiment`` per process grid — ``--pshape`` when given, else
    the command's own ``grids``.  ``engine`` is ``--engine`` built with
    ``engine_opts`` (``None`` for a command that defaults to no
    message-passing run and was given none) and is closed on exit.
    """
    from repro.apps.fdtd import build_parallel_fdtd

    problem = _e1_problem() if args.experiment == "e1" else _e2_problem()
    pars = [
        build_parallel_fdtd(pshape=pshape, overlap=args.overlap, **problem)
        for pshape in ([args.pshape] if args.pshape else grids)
    ]
    engine = None
    if args.engine:
        if args.hosts:
            engine_opts["hosts"] = args.hosts
        engine = make_engine(args.engine, **engine_opts)
    try:
        yield pars, engine
    finally:
        # Only the process-backed engines hold anything to release.
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def _near_fields_identical(par, stores, reference) -> bool:
    """Every field component on ``par``'s host rank bitwise equal to
    ``reference`` (a component -> array mapping)."""
    from repro.apps.fdtd import COMPONENTS
    from repro.util import bitwise_equal_arrays

    return all(
        bitwise_equal_arrays(stores[par.host][c], reference[c])
        for c in COMPONENTS
    )


def _same(ok: bool) -> str:
    return "identical" if ok else "DIFFERS"


# ---------------------------------------------------------------------------
# Records: what each experiment found, printed by one renderer
# ---------------------------------------------------------------------------


@dataclass
class Record:
    """What one experiment found: the notes and tables it prints, in
    order, the numbers behind them, and its verdict.  :func:`render`
    prints any record; ``tests/experiments/`` checks the fields and that
    EXPERIMENTS.md quotes the tables' cells."""

    title: str
    parts: list[str | Table] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    values: dict[str, Any] = field(default_factory=dict)
    ok: bool = True

    def note(self, text: str) -> None:
        self.parts.append(text)

    def add_table(self, name: str, table: Table) -> None:
        self.tables[name] = table
        self.parts.append(table)

    def check(self, claim) -> None:
        """Fold one claim into the verdict."""
        self.ok = self.ok and bool(claim)


def render(record: Record, out=print) -> bool:
    """Print ``record`` as its command does; return its verdict."""
    out(_header(record.title))
    for part in record.parts:
        out(part if isinstance(part, str) else part.render())
    return record.ok


# ---------------------------------------------------------------------------
# E1 — near-field correctness
# ---------------------------------------------------------------------------

_E1_GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)]


def run_e1(args=None) -> Record:
    from repro.apps.fdtd import VersionA

    if args is None:
        args = _PARSER.parse_args(["e1"])
    rec = Record("E1: near-field correctness (paper section 4.5)")
    rows = []
    with _build_run(args, _E1_GRIDS) as (pars, engine):
        rec.note(f"message-passing engine: {engine.name}\n")
        seq = VersionA(pars[0].config).run()
        for par in pars:
            sim = par.run_simulated()
            sim_ok = _near_fields_identical(par, sim, seq.fields)
            msg = engine.run(par.to_parallel())
            msg_ok = _near_fields_identical(par, msg.stores, sim[par.host])
            rec.check(sim_ok and msg_ok)
            rows.append([par.decomp.pgrid.shape, _same(sim_ok), _same(msg_ok)])
    rec.add_table(
        "grids",
        Table(
            [
                "process grid",
                "simulated-parallel vs sequential",
                "message-passing vs simulated",
            ],
            rows,
        ),
    )
    rec.note(
        "\npaper: 'the sequential simulated-parallel version produced "
        "results identical to those of the original sequential code' "
        "(near field), and 'the message-passing programs produced results "
        "identical to those of the corresponding sequential "
        "simulated-parallel versions, on the first and every execution'."
    )
    return rec


# ---------------------------------------------------------------------------
# E2 — far-field associativity
# ---------------------------------------------------------------------------

_E2_GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


def run_e2(args=None) -> Record:
    from repro.apps.fdtd import VersionC
    from repro.numerics import (
        dynamic_range,
        reordering_report,
        wide_dynamic_range_values,
    )
    from repro.util import bitwise_equal_arrays, max_rel_diff

    if args is None:
        args = _PARSER.parse_args(["e2"])
    rec = Record("E2: far-field associativity failure (paper section 4.5)")
    rows = []
    max_rel = rec.values["max_rel"] = {}
    close = rec.values["close_as_reals"] = {}
    with _build_run(args, _E2_GRIDS) as (pars, engine):
        if engine is not None:
            rec.note(f"message-passing engine: {engine.name}\n")
        seq = VersionC(pars[0].config, pars[0].ntff_config).run()
        reference = (seq.vector_potential_A, seq.vector_potential_F)
        for par in pars:
            pshape = par.decomp.pgrid.shape
            sim = par.run_simulated()
            A, F = par.host_potentials(sim)
            if engine is not None:
                # The transform run on a real backend must agree with the
                # simulated run bit-for-bit — near fields AND far-field
                # potentials (the reduce order is fixed, so even the
                # "wrong" reordered sum is reproducibly wrong).
                msg = engine.run(par.to_parallel())
                mA, mF = par.host_potentials(msg.stores)
                msg_ok = _near_fields_identical(par, msg.stores, sim[par.host])
                msg_ok &= bitwise_equal_arrays(mA, A)
                msg_ok &= bitwise_equal_arrays(mF, F)
                if not msg_ok:
                    rec.note(f"  {pshape}: {engine.name} run DIFFERS from simulated")
                rec.check(msg_ok)
            near_ok = _near_fields_identical(par, sim, seq.fields)
            bitA = bitwise_equal_arrays(A, reference[0])
            max_rel[pshape] = rel = max(map(max_rel_diff, (A, F), reference))
            # Reordered, not wrong: close as reals where not equal as floats.
            close[pshape] = all(
                np.allclose(x, ref, rtol=1e-9, atol=1e-22)
                for x, ref in zip((A, F), reference)
            )
            rec.check(near_ok and bitA == (par.decomp.nprocs == 1))
            rows.append(
                [
                    pshape,
                    _same(near_ok),
                    "identical" if bitA else f"differs (max rel {rel:.1e})",
                ]
            )
    rec.add_table(
        "grids",
        Table(
            ["process grid", "near field vs sequential", "far field vs sequential"],
            rows,
        ),
    )

    rec.note("\nWhy (footnote 2): dynamic range of the far-field summands —")
    # The sequential potentials' nonzero bins sample the summands' magnitudes.
    sample = reference[0][np.abs(reference[0]) > 0]
    if sample.size:
        info = rec.values["dynamic_range"] = dynamic_range(sample)
        rec.note("  " + info.describe())

    rec.note(
        "\nThe 'more sophisticated strategy' (compensated summation) "
        "restores reproducibility:"
    )
    values = wide_dynamic_range_values(4096, orders=14)
    report = rec.values["reordering"] = reordering_report(
        values, parts_list=(1, 2, 4, 8)
    )
    rec.note(report.describe())
    rec.check(report.max_kahan_discrepancy() < report.max_reordering_discrepancy())
    return rec


# ---------------------------------------------------------------------------
# Table 1 / Figure 2
# ---------------------------------------------------------------------------


def run_table1() -> Record:
    from repro.perfmodel import SUN_ETHERNET, estimate_parallel_time, table1_report

    rec = Record("Table 1 (modeled substitution — see DESIGN.md)")
    rec.add_table("table1", table1_report())
    # Where the P = 4 row's time goes (the table's model and parameters).
    rec.values["breakdown_p4"] = estimate_parallel_time(
        (33, 33, 33), 128, 4, SUN_ETHERNET, "C"
    )
    return rec


def run_figure2() -> Record:
    from repro.perfmodel import figure2_report

    rec = Record("Figure 2 (modeled substitution — see DESIGN.md)")
    table, curve = figure2_report()
    rec.add_table("figure2", table)
    rec.note("\n" + curve)
    return rec


# ---------------------------------------------------------------------------
# E5 — Theorem 1
# ---------------------------------------------------------------------------


def run_theorem1() -> Record:
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
        enumerate_reduced,
        foata_normal_form,
        permute_interleaving,
    )
    from repro.theory.violations import (
        finite_slack_system,
        nondeterministic_body_system,
        shared_variable_system,
    )

    rec = Record("E5: Theorem 1 — determinacy of SRSW-channel systems")
    found = rec.values

    def stencil_ring():
        # A miniature of the FDTD exchange/compute cycle on a ring.
        def body(ctx):
            import numpy as _np

            u = _np.arange(4.0) + ctx.rank
            for _ in range(3):
                ctx.send(f"r{ctx.rank}", u[-1])
                ghost = ctx.recv(f"r{(ctx.rank - 1) % ctx.nprocs}")
                u[0] = 0.5 * (u[0] + ghost)
            ctx.store["u"] = u

        system = System([ProcessSpec(r, body) for r in range(4)])
        for r in range(4):
            system.add_channel(f"r{r}", r, (r + 1) % 4)
        return system

    report = found["stencil_ring"] = check_determinacy(
        stencil_ring, n_random=12, threaded_runs=3
    )
    rec.note("stencil ring (conforming): " + report.summary())
    rec.check(report.determinate)

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

    enum = found["enumeration"] = enumerate_interleavings(two_proc_exchange())
    rec.note(f"exhaustive enumeration (2-proc exchange): {enum.summary()}")
    rec.check(enum.determinate)

    reduced = found["reduced"] = enumerate_reduced(two_proc_exchange())
    rec.note(
        "partial-order reduction (sleep sets): "
        f"{reduced.visited} representative of {enum.interleavings} "
        "interleavings suffices"
    )
    rec.check(reduced.determinate and reduced.visited <= enum.interleavings)

    # Constructive permutation (the proof technique).
    r1 = CooperativeEngine(RoundRobinPolicy(), trace=True).run(two_proc_exchange())
    r2 = CooperativeEngine(RunToBlockPolicy(), trace=True).run(two_proc_exchange())
    cert = found["certificate"] = permute_interleaving(r1.trace, r2.trace)
    rec.note("permutation certificate: " + cert.summary())

    # Canonical form: every interleaving of a conforming system has the
    # same Foata normal form (one Mazurkiewicz trace class).
    f1, f2 = found["foata"] = (
        foata_normal_form(r1.trace),
        foata_normal_form(r2.trace),
    )
    rec.check(f1 == f2)
    rec.note(
        f"canonical (Foata) form identical across schedules: {f1 == f2} "
        f"— {f1.total_events} events, critical path {f1.depth}, "
        f"peak parallelism {f1.width}"
    )

    rec.note("\nhypothesis violations (each breaks determinacy):")
    violations = found["violations"] = {}
    for name, factory in [
        ("shared variables", lambda: shared_variable_system(5)),
        ("nondeterministic body", lambda: nondeterministic_body_system(4)),
        ("finite slack", lambda: finite_slack_system(6)),
    ]:
        vr = violations[name] = check_determinacy(
            factory, n_random=6, threaded_runs=0
        )
        rec.note(f"  {name}: {vr.summary().splitlines()[0]}")
        rec.check(not vr.determinate)
    return rec


# ---------------------------------------------------------------------------
# Figure 1 — trace correspondence
# ---------------------------------------------------------------------------


def run_figure1() -> Record:
    from repro.runtime import (
        CooperativeEngine,
        ProcessSpec,
        SendsFirstPolicy,
        System,
        ThreadedEngine,
    )
    from repro.theory.events import check_same_action_sequences

    rec = Record("Figure 1: parallel vs simulated-parallel correspondence")

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
    rec.values["traces"] = (par.trace, sim.trace)
    rec.note("real parallel (threaded, observed order):")
    rec.note(par.trace.render())
    rec.note("\nsimulated parallel (sends-first schedule):")
    rec.note(sim.trace.render())
    same = check_same_action_sequences(par.trace, sim.trace)
    rec.note(
        f"\nper-process action sequences identical: {same}; "
        f"final states equal: {par.stores == sim.stores}"
    )
    rec.check(same and par.stores == sim.stores)
    return rec


# ---------------------------------------------------------------------------
# E7 — effort metrics
# ---------------------------------------------------------------------------


def run_effort() -> Record:
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        NTFFConfig,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )
    from repro.refinement import TransformationMetrics

    rec = Record("E7: effort — paper person-days vs mechanical-edit counts")
    rec.note(
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
                metrics.stages,
                metrics.exchanges,
                metrics.assignments,
                metrics.message_pairs,
                metrics.channels,
            ]
        )
        # The final stage is the one call: one process per partition.
        rec.check(par.to_parallel().nprocs == par.builder.nprocs)
    rec.add_table(
        "metrics",
        Table(
            [
                "program",
                "stages",
                "exchanges",
                "assignments",
                "messages/run",
                "channels",
            ],
            rows,
        ),
    )
    return rec


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def _all_pairs_exchange(nprocs: int, sends_first: bool):
    """Every rank sends its rank to every other and receives theirs —
    with every send before any receive, or (wrongly) each receive
    before its send."""
    from repro.runtime import ProcessSpec, System

    def body(ctx):
        partners = [r for r in range(ctx.nprocs) if r != ctx.rank]
        got = []
        for p in partners:
            if sends_first:
                ctx.send(f"c_{ctx.rank}_{p}", ctx.rank)
            else:
                got.append(ctx.recv(f"c_{p}_{ctx.rank}"))
                ctx.send(f"c_{ctx.rank}_{p}", ctx.rank)
        if sends_first:
            got = [ctx.recv(f"c_{p}_{ctx.rank}") for p in partners]
        ctx.store["got"] = got

    system = System([ProcessSpec(r, body) for r in range(nprocs)])
    for i in range(nprocs):
        for j in range(nprocs):
            if i != j:
                system.add_channel(f"c_{i}_{j}", i, j)
    return system


def _reduction(nprocs: int, method: str):
    """Every rank contributes ``1 + rank / 4``; all-to-one/one-to-all
    (``"a2o"``) or recursive doubling (``"rd"``) sums them on the
    threaded engine."""
    import operator

    from repro.runtime import (
        Collectives,
        Communicator,
        ProcessSpec,
        System,
        ThreadedEngine,
        make_full_mesh_channels,
    )

    def body(ctx):
        coll = Collectives(Communicator(ctx))
        value = 1.0 + ctx.rank * 0.25
        if method == "a2o":
            return coll.reduce_one_to_all(value, operator.add)
        return coll.allreduce_recursive_doubling(value, operator.add)

    system = System([ProcessSpec(r, body) for r in range(nprocs)])
    make_full_mesh_channels(system)
    return ThreadedEngine().run(system)


def _jacobi_region(store, rank, region):
    """One Jacobi sweep of a 2-D five-point stencil over ``region``."""
    u = store["u"]
    (i0, i1), (j0, j1) = ((s.start, s.stop) for s in region)
    core = u[region]
    lap = (
        u[i0 - 1 : i1 - 1, j0:j1]
        + u[i0 + 1 : i1 + 1, j0:j1]
        + u[i0:i1, j0 - 1 : j1 - 1]
        + u[i0:i1, j0 + 1 : j1 + 1]
        - 4.0 * core
    )
    u[region] = core + 0.2 * lap


def run_ablations() -> Record:
    from repro.apps.fdtd.update import H_GHOST_FACES
    from repro.archetypes.mesh import (
        BlockDecomposition,
        MeshProgramBuilder,
        add_redundant_sweeps,
        choose_process_grid,
        redundant_comm_volume,
    )
    from repro.errors import DeadlockError
    from repro.perfmodel import IBM_SP2, SUN_ETHERNET, exchange_comm_volume
    from repro.runtime import CooperativeEngine, RandomPolicy, SendsFirstPolicy
    from repro.runtime.deadlock import explain_deadlock
    from repro.util import bitwise_equal_arrays

    rec = Record("Ablations")
    found = rec.values

    # A1 — ordering: receives-first deadlocks, sends-first cannot.
    rec.note("A1: data-exchange ordering (sends before receives)")
    try:
        CooperativeEngine().run(_all_pairs_exchange(2, sends_first=False))
        rec.note("  recv-first: unexpectedly completed")
        rec.check(False)
    except DeadlockError as exc:
        rec.note(f"  recv-first: DEADLOCK as predicted ({len(exc.waiting)} blocked)")
    CooperativeEngine(SendsFirstPolicy()).run(_all_pairs_exchange(2, sends_first=True))
    rec.note("  sends-first: completes under every schedule (Theorem 1's recipe)")

    a1 = found["a1"] = {"diagnosis": None}
    try:
        CooperativeEngine().run(_all_pairs_exchange(4, sends_first=False))
        rec.note("  4-rank all-pairs, recv-first: unexpectedly completed")
    except DeadlockError as exc:
        diagnosis = a1["diagnosis"] = explain_deadlock(
            exc, _all_pairs_exchange(4, sends_first=False)
        )
        rec.note(
            f"  4-rank all-pairs, recv-first: DEADLOCK ({len(exc.waiting)} "
            "blocked)\n    " + diagnosis.replace("\n", "\n    ")
        )
    rec.check(a1["diagnosis"] and "circular wait" in a1["diagnosis"])
    engines = [CooperativeEngine()] + [
        CooperativeEngine(RandomPolicy(seed=seed)) for seed in range(3)
    ]
    received = traffic = True
    for engine in engines:
        result = engine.run(_all_pairs_exchange(4, sends_first=True))
        received &= all(
            sorted(store["got"]) == [r for r in range(4) if r != rank]
            for rank, store in enumerate(result.stores)
        )
        traffic &= all(n == (1, 1) for n in result.channel_stats.values())
    a1.update(received=received, one_message_per_channel=traffic)
    rec.note(
        "  4-rank all-pairs, sends-first: each rank received one value "
        f"from every other under {len(engines)} schedules (round-robin, "
        f"random seeds 0-2): {received}; each of the "
        f"{len(result.channel_stats)} channels carried exactly one "
        f"message: {traffic}"
    )
    rec.check(received and traffic)

    # A2 — reduction topology.
    rec.note("\nA2: reduction topology (all-to-one/one-to-all vs recursive doubling)")
    rows = []
    for p in (4, 8, 16, 32):
        a2o_msgs = 2 * (p - 1)  # gather + broadcast tree-less
        rd_msgs = p * int(np.log2(p)) if (p & (p - 1)) == 0 else None
        lat = SUN_ETHERNET.latency
        a2o_t = 2 * (p - 1) * lat  # serialised at root
        rd_t = int(np.log2(p)) * 2 * lat
        rows.append([p, a2o_msgs, a2o_t * 1e3, rd_msgs, rd_t * 1e3])
    rec.add_table(
        "a2",
        Table(
            ["P", "a2o msgs", "a2o latency", "rd msgs", "rd critical path"],
            rows,
            formats=["{}", "{}", "{:.1f} ms", "{}", "{:.1f} ms"],
        ),
    )
    modeled = {row[0]: (row[1], row[3]) for row in rows}
    rows = []
    for p in (4, 8):
        expected = sum(1.0 + r * 0.25 for r in range(p))
        counts, sums_ok = [], True
        for method in ("a2o", "rd"):
            result = _reduction(p, method)
            counts.append(sum(s for s, _ in result.channel_stats.values()))
            sums_ok &= result.returns == [expected] * p
        rows.append([p, *counts, expected if sums_ok else "MISMATCH"])
        rec.check(sums_ok and tuple(counts) == modeled[p])
    rec.note("  on the threaded engine (rank r contributes 1 + r/4):")
    rec.add_table(
        "a2_substrate",
        Table(["P", "a2o msgs", "rd msgs", "sum on every rank"], rows),
    )
    crossover = found["a2_crossover"] = all(
        2 * int(np.log2(p)) * m.latency < 2 * (p - 1) * m.latency
        for m in (SUN_ETHERNET, IBM_SP2)
        for p in (8, 16, 32, 64)
    )
    rec.note(
        "  recursive doubling's critical path is the shorter one from P = 8 "
        f"up to 64 on both machine models (Suns, SP): {crossover}"
    )
    rec.check(crossover)

    # A3 — decomposition shape.
    rec.note("\nA3: process-grid shape for the 33^3 node grid (exchange bytes/step)")
    rows = []
    for pshape in [(8, 1, 1), (4, 2, 1), (2, 2, 2)]:
        d = BlockDecomposition((34, 34, 34), pshape, ghost=1)
        vol = exchange_comm_volume(d, 3, 4, faces=H_GHOST_FACES)
        rows.append([pshape, vol.total_messages, vol.total_bytes / 1e3])
    rec.add_table(
        "a3",
        Table(
            ["process grid", "messages", "bytes per phase"],
            rows,
            formats=["{}", "{}", "{:.1f} kB"],
        ),
    )
    rec.note("  (balanced 3-D blocks minimise surface, as choose_process_grid picks)")
    least = min(rows, key=lambda row: row[2])[0]
    chosen = found["a3_chosen"] = choose_process_grid(8, (34, 34, 34))
    rec.check(sorted(chosen) == sorted(least))

    # A4 — deep ghosts: exchange every g sweeps, compute the ring redundantly.
    rec.note(
        "\nA4: ghost width g (24x20 grid, 2x2 ranks + host, 6 Jacobi sweeps; "
        "an exchange every g sweeps)"
    )
    initial = np.random.default_rng(9).normal(size=(24, 20))
    rows, fields = [], []
    for ghost in (1, 2, 3):
        decomp = BlockDecomposition(initial.shape, (2, 2), ghost=ghost)
        builder = MeshProgramBuilder(decomp, use_host=True, name=f"a4-g{ghost}")
        builder.declare_distributed("u", initial.copy())
        add_redundant_sweeps(builder, "u", _jacobi_region, nsweeps=6)
        builder.collect("u")
        fields.append(np.asarray(builder.run_simulated()[builder.host]["u"]))
        vol, exchanges = redundant_comm_volume(decomp, 1, 8, 6)
        seconds = SUN_ETHERNET.transfer_round_time(
            vol.total_messages, vol.total_bytes
        )
        rows.append(
            [ghost, exchanges, vol.total_messages, vol.total_bytes / 1e3, seconds * 1e3]
        )
    rec.add_table(
        "a4",
        Table(
            ["g", "exchanges", "messages", "bytes", "modeled time (Suns)"],
            rows,
            formats=["{}", "{}", "{}", "{:.1f} kB", "{:.1f} ms"],
        ),
    )
    identical = found["a4_identical"] = all(
        bitwise_equal_arrays(fields[0], f) for f in fields[1:]
    )
    rec.note(f"  fields bitwise identical for every g: {identical}")
    messages = [row[2] for row in rows]
    times = [row[4] for row in rows]
    rec.check(
        identical
        and messages == sorted(set(messages), reverse=True)
        and times == sorted(set(times), reverse=True)
    )
    return rec


# ---------------------------------------------------------------------------
# Far fields / RCS (derived observable, section 4.1's "e.g., for radar
# cross section computations")
# ---------------------------------------------------------------------------


def run_rcs() -> Record:
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        MaterialGrid,
        NTFFConfig,
        PointSource,
        VersionC,
        YeeGrid,
        far_field_energy,
        far_field_signal,
        rcs_proxy,
    )

    rec = Record("Far-zone fields / RCS proxy (derived from the potentials)")
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
    rec.add_table(
        "directions",
        Table(
            ["direction", "radiated energy density", "RCS proxy"],
            [list(row) for row in zip(labels, energy, sigma)],
            formats=["{}", "{:.3e}", "{:.3e}"],
        ),
    )
    # A z-directed dipole has a radiation null along z.
    null = energy[3] < 0.2 * max(energy[:3])
    rec.note(
        "\n(the +z direction sits in the z-dipole's radiation null — "
        f"{'confirmed' if null else 'NOT confirmed'})"
    )
    rec.check(null)
    return rec


# ---------------------------------------------------------------------------
# stats — instrumented run + observability report (see docs/OBSERVABILITY.md)
# ---------------------------------------------------------------------------

_STATS_GRIDS = [(2, 2, 1)]


def _describe_run(args, par, engine) -> str:
    return (
        f"experiment={args.experiment}  grid={par.config.grid.shape}  "
        f"steps={par.config.steps}  pshape={par.decomp.pgrid.shape}  "
        f"version={par.version}  engine={engine.name}  "
        f"overlap={args.overlap}\n"
    )


def run_stats(args, out=print) -> bool:
    """``python -m repro stats <e1|e2> [options]`` — run the experiment's
    parallel program once with instrumentation on, print the run summary
    (per-process compute/blocked split, per-channel traffic and queue
    high-water marks, rank x rank communication matrices, per-phase
    timings) and the measured-vs-modeled communication comparison, and
    export the run as Chrome trace JSON + JSONL.

    Under ``--overlap`` the measured-vs-modeled comparison is skipped:
    the per-variable message model does not describe the combined split
    exchanges.
    """
    import json

    from repro.obs import fdtd_model_comparison, write_chrome_trace, write_jsonl

    out(_header(f"stats: instrumented {args.experiment} run"))
    with _build_run(args, _STATS_GRIDS, observe=True) as ((par,), engine):
        out(_describe_run(args, par, engine))
        result = engine.run(par.to_parallel())
    report = result.report
    out(report.summary())

    comparison_rows = []
    if args.overlap:
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
        comparison_rows = comparison.rows
        out("\nmeasured vs cost-model predictions (E3/E4 loop closure):")
        out(comparison.table())
        agree = comparison.agreement()
        out(
            "agreement: exact"
            if agree
            else "agreement: MISMATCH — model and implementation have diverged"
        )

    pshape = par.decomp.pgrid.shape
    stem = f"stats_{args.experiment}_{'x'.join(map(str, pshape))}_{engine.name}"
    if args.overlap:
        stem += "_overlap"
    trace_path = write_chrome_trace(report, args.outdir / f"{stem}.trace.json")
    jsonl_path = write_jsonl(report, args.outdir / f"{stem}.jsonl")
    out(f"\nwrote {trace_path} (chrome://tracing / Perfetto)")
    out(f"wrote {jsonl_path} (JSONL event log)")

    if args.bench is not None:
        bench = {
            "experiment": args.experiment,
            "engine": engine.name,
            "grid_shape": list(par.config.grid.shape),
            "steps": par.config.steps,
            "pshape": list(pshape),
            "overlap": args.overlap,
            "nprocs": report.nprocs,
            "total_messages": report.total_messages(),
            "total_bytes": report.total_bytes(),
            "model_agreement": agree,
            "model_comparison": [
                {"quantity": q, "measured": m, "modeled": pred}
                for q, m, pred in comparison_rows
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
        args.bench.parent.mkdir(parents=True, exist_ok=True)
        args.bench.write_text(json.dumps(bench, indent=2) + "\n")
        out(f"wrote {args.bench} (benchmark baseline)")
    return agree


# ---------------------------------------------------------------------------
# trace — causal (happens-before) tracing across engines
# ---------------------------------------------------------------------------


def run_trace(args, out=print) -> bool:
    """``python -m repro trace <e1|e2> [options]`` — run the
    experiment's parallel program once traced, read its events in
    Lamport-clock order, check it (every receive must causally follow
    its send), and render the Figure-1-style timeline.
    """
    import json

    from repro.obs import write_chrome_trace

    out(_header(f"trace: causal {args.experiment} run"))
    with _build_run(
        args, _STATS_GRIDS, observe=args.chrome is not None, trace=True
    ) as ((par,), engine):
        out(_describe_run(args, par, engine))
        result = engine.run(par.to_parallel())
    causal = result.trace.by_clock()

    out(causal.render_columns(limit=args.limit or None))
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

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(causal.to_dict(), indent=2) + "\n")
        out(f"wrote {args.out} (causal trace JSON)")
    if args.chrome is not None:
        if result.report is None:
            out("--chrome needs an observed run; engine returned no report")
            return False
        write_chrome_trace(result.report, args.chrome)
        out(f"wrote {args.chrome} (Chrome trace with flow-event arrows)")
    return not violations


# ---------------------------------------------------------------------------
# entry point: one parser for every command
# ---------------------------------------------------------------------------

#: name -> (runner, one-line help); ``all`` runs them in this order.
EXPERIMENTS = {
    "e1": (run_e1, "correctness, near field (identical results)"),
    "e2": (run_e2, "correctness, far field (reordered sums differ; Kahan fix)"),
    "table1": (run_table1, "modeled Table 1 (Version C on the network of Suns)"),
    "figure2": (run_figure2, "modeled Figure 2 (Version A on the IBM SP)"),
    "theorem1": (run_theorem1, "determinacy experiments (E5)"),
    "figure1": (run_figure1, "parallel vs simulated-parallel trace correspondence"),
    "effort": (run_effort, "mechanical-edit counts vs the paper's person-days (E7)"),
    "ablations": (
        run_ablations,
        "A1 ordering, A2 reduction topology, A3 grid shape, A4 ghost width",
    ),
    "rcs": (run_rcs, "far-zone fields / RCS proxy derived from the potentials"),
}


def run_all(out=print) -> bool:
    results = {key: render(fn(), out) for key, (fn, _help) in EXPERIMENTS.items()}
    out(_header("summary"))
    for key, good in results.items():
        out(f"  {key:10s} {'OK' if good else 'MISMATCH'}")
    return all(results.values())


def _pshape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(p) for p in text.replace(",", "x").split("x"))
    except ValueError:
        shape = ()
    if len(shape) != 3 or min(shape) < 1:
        raise argparse.ArgumentTypeError(
            f"expected three positive integers AxBxC, got {text!r}"
        )
    return shape


def _hosts(text: str) -> list[tuple[str, int]]:
    from repro.dist.net.rendezvous import parse_hosts

    try:
        return parse_hosts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fault_plan(text: str):
    from repro.errors import ReproError
    from repro.explore.faults import parse_fault_plan

    try:
        return parse_fault_plan(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _run_options(default_engine: str | None) -> argparse.ArgumentParser:
    """The parent parser of ``e1``, ``e2``, ``stats`` and ``trace``:
    which program, on which engine.  Made per command — ``argparse``
    shares a parent's actions by reference, so one parent could carry
    only one ``--engine`` default."""
    parent = argparse.ArgumentParser(add_help=False)
    add = parent.add_argument
    add("--pshape", type=_pshape, metavar="AxBxC", help="process grid")
    add(
        "--engine",
        choices=ENGINE_NAMES,
        default=default_engine,
        help="backend of the message-passing run (default: %(default)s)",
    )
    add(
        "--hosts",
        type=_hosts,
        metavar="HOST:PORT,...",
        help="socket engine: external worker daemons (default: own loopback ones)",
    )
    add(
        "--overlap",
        action="store_true",
        help="the overlapped shell/interior program (docs/ENGINES.md)",
    )
    return parent


def _run_explore(args) -> int:
    from repro.explore.cli import run_explore

    return run_explore(args)


def _run_daemon(args) -> int:
    from repro.dist.net.daemon import run_daemon_cli

    return run_daemon_cli(args)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The whole command line: ``(parser, {command: subparser})``.

    Every command sets ``run``, a callable from the parsed namespace to
    the exit status.  Malformed values are rejected by ``type=``
    converters and ``choices=``, so every usage error exits 2.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the artifacts of the paper's evaluation "
        "(see DESIGN.md's experiment index) and drive the runtime's tools.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )

    def reproduced(fn):
        """Exit status of a runner that answers "did it reproduce?"."""
        return lambda args: 0 if fn(args) else 1

    for name, (fn, text) in EXPERIMENTS.items():
        if name in ("e1", "e2"):
            parent = _run_options("threaded" if name == "e1" else None)
            sub = commands.add_parser(name, help=text, parents=[parent])
            sub.set_defaults(
                run=reproduced(lambda args, fn=fn: render(fn(args))),
                experiment=name,
            )
        else:
            sub = commands.add_parser(name, help=text)
            sub.set_defaults(run=reproduced(lambda args, fn=fn: render(fn())))
    sub = commands.add_parser("all", help="every experiment above, in order")
    sub.set_defaults(run=reproduced(lambda args: run_all()))

    sub = commands.add_parser(
        "stats",
        parents=[_run_options("threaded")],
        help="one experiment with the observability layer on",
        description=inspect.getdoc(run_stats),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add = sub.add_argument
    add("experiment", nargs="?", choices=("e1", "e2"), default="e1")
    add(
        "--outdir",
        type=Path,
        default=Path("runs"),
        metavar="DIR",
        help="where the Chrome trace and JSONL go (default: runs)",
    )
    add("--bench", type=Path, metavar="FILE", help="also write a baseline JSON")
    sub.set_defaults(run=reproduced(run_stats))

    sub = commands.add_parser(
        "trace",
        parents=[_run_options("multiprocess")],
        help="one experiment with causal tracing on",
        description=inspect.getdoc(run_trace),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add = sub.add_argument
    add("experiment", nargs="?", choices=("e1", "e2"), default="e1")
    add("--out", type=Path, metavar="FILE", help="write the causal trace as JSON")
    add(
        "--chrome",
        type=Path,
        metavar="FILE",
        help="write a Chrome trace whose send->recv pairs are flow arrows",
    )
    add(
        "--limit",
        type=int,
        default=48,
        metavar="N",
        help="timeline rows printed (default 48, 0 = all)",
    )
    sub.set_defaults(run=reproduced(run_trace))

    sub = commands.add_parser(
        "explore",
        help="schedule-space explorer (docs/EXPLORATION.md)",
        description="Explore named targets' maximal interleavings on the "
        "cooperative engine, checking every schedule for the Theorem 1 "
        "contract; with --engine, sweep a fault plan against a real process "
        "engine; with --replay, re-execute a violation artifact.  Exit 0 "
        "when the contract held (under --expect-violation: when a violation "
        "was found and its artifact replays), 1 otherwise.",
    )
    add = sub.add_argument
    add(
        "--target",
        dest="targets",
        type=lambda text: [t for t in text.split(",") if t],
        default=["ring3"],
        metavar="NAME[,NAME...]",
        help="targets to explore (see --list; default ring3)",
    )
    add("--strategy", choices=("dfs", "walk"), default="dfs", help="(default dfs)")
    add(
        "--schedules",
        type=int,
        default=200,
        metavar="N",
        help="distinct schedules per target (default 200)",
    )
    add("--max-steps", type=int, metavar="N", help="per-run action bound")
    add("--max-depth", type=int, metavar="N", help="dfs: deepest branching index")
    add("--seed", type=int, default=0, metavar="N", help="walk: base RNG seed")
    add(
        "--faults",
        type=_fault_plan,
        metavar="SPEC",
        help="kill:RANK@STEP,delay:CHANNEL#INDEX[~HOLD],...",
    )
    add(
        "--no-fingerprints",
        dest="fingerprints",
        action="store_false",
        help="dfs: disable state-fingerprint pruning",
    )
    add(
        "--engine",
        choices=ENGINE_NAMES,
        help="a process engine: real-fault sweep mode (kills are SIGKILLs)",
    )
    add("--runs", type=int, default=3, metavar="N", help="sweep: runs per engine")
    add("--replay", metavar="FILE", help="re-execute a violation artifact and exit")
    add(
        "--expect-violation",
        action="store_true",
        help="exit 0 iff a violation was found and replays (racy CI)",
    )
    add(
        "--artifact-dir",
        type=Path,
        default=Path("artifacts/explore"),
        metavar="DIR",
        help="where violation artifacts go (default artifacts/explore)",
    )
    add("--json", type=Path, metavar="FILE", help="write the report(s) as JSON")
    add("--list", action="store_true", help="list known targets and exit")
    sub.set_defaults(run=_run_explore)

    sub = commands.add_parser(
        "worker-daemon",
        help="per-host daemon of the cross-host transport (docs/ENGINES.md)",
        description="Run one worker daemon in the foreground until "
        "interrupted or told to shut down.  Point coordinators at it with "
        "--engine socket --hosts H:P[,H2:P2,...].",
    )
    add = sub.add_argument
    add("--host", default="0.0.0.0")
    add("--port", type=int, default=0)
    add("--handshake-timeout", type=float, default=30.0, metavar="S")
    add(
        "--stats-interval",
        type=float,
        default=0.0,
        metavar="S",
        help="print a 'stats {json}' line (what remote pollers see) every S s",
    )
    sub.set_defaults(run=_run_daemon)
    return parser, commands.choices


_PARSER, _COMMANDS = _build_parser()

# ``__doc__`` is None under ``python -OO``.
__doc__ = (__doc__ or "") + "\n" + "\n".join(
    [_PARSER.format_help()]
    + [
        _COMMANDS[name].format_help()
        for name in ("e1", "stats", "trace", "explore", "worker-daemon")
    ]
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "hosts", None) and args.engine != "socket":
            _COMMANDS[args.command].error("--hosts needs --engine socket")
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return exc.code
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
