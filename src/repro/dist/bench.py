"""``python -m repro bench`` — the engine-comparison benchmark harness.

Runs the FDTD programs (Versions A and C) across the execution backends
and several process-grid shapes, checks the paper's §4 correctness
result *across backends* — near fields bitwise identical to the
sequential code, and identical between engines — and writes the
measurements to ``benchmarks/BENCH_engines.json``.

Besides the three plain engines, two multiprocess variants are
benchmarked by default:

* ``multiprocess+pool`` — the same engine with ``pool=True``: workers
  boot once and are re-dispatched across the ``--repeat`` runs, so
  ``runs_total_s`` (the summed wall time of all repeats) amortizes the
  interpreter-boot cost the per-run-boot rows pay every time;
* ``multiprocess+batch`` — the plain engine running the *batched*
  program (``build_parallel_fdtd(..., batch_exchanges=True)``): all
  field components of one ghost exchange fold into a single wire frame
  per neighbour pair, which the ``frames`` column makes visible.

With ``--overlap both`` (the default) every engine row is measured
twice — on the baseline program and on the overlapped shell/interior
program (``build_parallel_fdtd(..., overlap=True)``; see
docs/ENGINES.md "Overlap refinement") — with per-row bitwise identity
against the sequential fields; an extra *observed* run per engine
records the per-rank compute/blocked split into the ``observed``
block.  The ``overlap_beats_baseline_ge_1p15x`` (multiprocess+pool,
Version A, 4 ranks) and ``overlap_lowers_blocked_time`` checks are
recorded always and enforced on multi-core hosts outside smoke.
``--backend numpy|cupy`` selects the array namespace the kernels run
on (:mod:`repro.xp`); rows record it in the ``backend`` column.

A ``socket`` row runs the cross-host transport
(:class:`~repro.dist.net.engine.SocketEngine`) over ``--daemons N``
loopback worker daemons (default 2), or over external daemons with
``--hosts host:port,...`` — the transport-cost row of the comparison.
``socket+batch`` runs the batched ghost-exchange program over the same
transport: the row on which the vectored data plane's syscall
accounting (``net_syscalls`` vs ``net_syscalls_unvectored``, the
enforced ≥2× ``net_send_syscall_reduction_ge_2x`` check) is most
visible.  Each result row records its ``transport``
(``memory``/``pipe``/``socket``); the meta block records the hostname
and daemon count.

Per-row wire-traffic accounting (``frames``, ``pipe_bytes``,
``shm_bytes``) comes from the multiprocess channels; in-process engines
have no wire, so they report zeros there.

Timing discipline: every engine is constructed **once** per row, given
one untimed **warm-up** run (recorded as ``warmup_s``), then run
``--repeat`` timed times; program construction (``to_parallel()``)
happens outside the timed region, so ``run_s`` measures the engine
alone.  The warm-up run absorbs one-time costs that are not the
engine's steady-state — allocator arena growth, page-cache and
first-touch page provisioning, pool boot — for every engine equally.
The minimum ``run_s`` is reported.  For the multiprocess engine the
headline ``run_s`` excludes worker startup (interpreter boot, imports,
shared memory attach) — the engine holds workers at a barrier and times
from "go" — with ``startup_s`` reported alongside; in-process engines
have no comparable startup phase, so their ``run_s`` is plain wall time
around ``run()``.  The default start method here is ``fork`` so the
steady-state cost of the OS-process backend is compared, not the
price of booting interpreters (``--start-method spawn`` to override).

``--smoke`` shrinks everything (tiny grid, 2 ranks, one repetition)
for CI; the frame-reduction checks still run there, the pool
amortization check needs ``--repeat >= 2`` and is skipped.
``--affinity auto|CPU,CPU,...`` pins multiprocess workers;
``--payload-slab N`` sizes the zero-copy staging slab (0 disables it,
forcing every payload through the pipe).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from multiprocessing import resource_sharer
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["run_bench", "run_serve_bench"]

#: (version, grid shape, steps, per-version note) for the full bench.
FULL_CASES = [
    ("A", (121, 121, 121), 3, "near-field only; the paper's Fortran77 code"),
    ("C", (33, 33, 33), 8, "with far-field (NTFF) accumulation + reduce"),
]
SMOKE_CASES = [
    ("A", (11, 9, 9), 4, "smoke"),
    ("C", (11, 9, 9), 4, "smoke"),
]
FULL_PSHAPES = [(2, 1, 1), (2, 2, 1), (2, 2, 2)]
SMOKE_PSHAPES = [(2, 1, 1)]
ENGINES = (
    "cooperative",
    "threaded",
    "multiprocess",
    "multiprocess+pool",
    "multiprocess+batch",
    "socket",
    "socket+batch",
)


def _transport_of(engine_name: str) -> str:
    """Which wire a row's values crossed: in-process engines move
    references in ``memory``, the multiprocess engines speak OS
    ``pipe``s (+ shm slabs), the network engine speaks TCP ``socket``s."""
    base, _ = _parse_engine(engine_name)
    if base == "socket":
        return "socket"
    if base == "multiprocess":
        return "pipe"
    return "memory"

#: Channel-name prefix of the transform's data-exchange channels.
_DX_PREFIX = "dx_"


def _parse_engine(name: str) -> tuple[str, frozenset[str]]:
    """``"multiprocess+pool" -> ("multiprocess", {"pool"})``."""
    base, _, mods = name.partition("+")
    return base, frozenset(mods.split("+")) if mods else frozenset()


def _exchange_frames(frames: dict[str, int], host: int) -> int:
    """Wire frames on grid-to-grid data-exchange channels.

    The transform routes both per-step ghost exchanges *and* end-of-run
    collect/gather traffic over ``dx_{src}_{dst}`` channels; only the
    former is what exchange batching coalesces, so frames on channels
    with the host rank at either end are excluded here.
    """
    total = 0
    for name, n in frames.items():
        if not name.startswith(_DX_PREFIX):
            continue
        try:
            src, dst = map(int, name[len(_DX_PREFIX):].split("_"))
        except ValueError:
            continue
        if src != host and dst != host:
            total += n
    return total


def _build(
    version: str,
    shape: tuple,
    steps: int,
    pshape: tuple,
    batch=False,
    overlap=False,
    backend="numpy",
):
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        NTFFConfig,
        PointSource,
        YeeGrid,
        build_parallel_fdtd,
    )

    config = FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=steps,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=10, spread=3),
            )
        ],
    )
    ntff = NTFFConfig(gap=3) if version == "C" else None
    return build_parallel_fdtd(
        config,
        pshape,
        version=version,
        ntff=ntff,
        batch_exchanges=batch,
        overlap=overlap,
        backend=backend,
    )


def _sequential_fields(version: str, shape: tuple, steps: int):
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        NTFFConfig,
        PointSource,
        VersionA,
        VersionC,
        YeeGrid,
    )

    config = FDTDConfig(
        grid=YeeGrid(shape=shape),
        steps=steps,
        sources=[
            PointSource(
                "ez",
                tuple(s // 2 for s in shape),
                GaussianPulse(delay=10, spread=3),
            )
        ],
    )
    if version == "C":
        return VersionC(config, NTFFConfig(gap=3)).run().fields
    return VersionA(config).run().fields


def _make_engine(
    name: str, start_method: str, payload_slab, affinity, hosts=None, daemons=2
):
    base, mods = _parse_engine(name)
    if base == "socket":
        from repro.dist.net.engine import SocketEngine

        return SocketEngine(hosts=hosts, daemons=daemons)
    if base == "cooperative":
        from repro.runtime import CooperativeEngine

        return CooperativeEngine()
    if base == "threaded":
        from repro.runtime import ThreadedEngine

        return ThreadedEngine()
    if base == "multiprocess":
        from repro.dist.engine import MultiprocessEngine

        kwargs: dict[str, Any] = {
            "start_method": start_method,
            "pool": "pool" in mods,
            "affinity": affinity,
        }
        if payload_slab is not None:
            kwargs["payload_slab"] = payload_slab
        return MultiprocessEngine(**kwargs)
    raise ValueError(f"unknown engine {name!r}")


def _fields_of(par, stores) -> dict[str, np.ndarray]:
    from repro.apps.fdtd import COMPONENTS

    host = stores[par.host]
    return {c: np.asarray(host[c]) for c in COMPONENTS}


def _identical(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    from repro.util import bitwise_equal_arrays

    return all(bitwise_equal_arrays(a[c], b[c]) for c in a)


def run_bench(args: list[str], out=print) -> bool:
    """Run the harness; returns False on any equality or check failure."""
    smoke = False
    repeat = 3
    start_method = "fork"
    out_path = Path("benchmarks") / "BENCH_engines.json"
    engines = list(ENGINES)
    affinity = None
    payload_slab = None  # None = engine default (DEFAULT_SLAB)
    hosts = None
    daemons = 2
    overlap_arg = "both"
    backend = "numpy"
    rest = list(args)
    while rest:
        flag = rest.pop(0)
        if flag == "--smoke":
            smoke = True
        elif flag == "--repeat" and rest:
            repeat = int(rest.pop(0))
        elif flag == "--start-method" and rest:
            start_method = rest.pop(0)
        elif flag == "--out" and rest:
            out_path = Path(rest.pop(0))
        elif flag == "--engines" and rest:
            engines = rest.pop(0).split(",")
        elif flag == "--hosts" and rest:
            hosts = rest.pop(0)
        elif flag == "--daemons" and rest:
            daemons = int(rest.pop(0))
        elif flag == "--overlap" and rest:
            overlap_arg = rest.pop(0)
        elif flag == "--backend" and rest:
            backend = rest.pop(0)
        elif flag == "--affinity" and rest:
            spec = rest.pop(0)
            affinity = (
                "auto" if spec == "auto" else [int(c) for c in spec.split(",")]
            )
        elif flag == "--payload-slab" and rest:
            payload_slab = int(rest.pop(0))
        else:
            out(f"unknown or incomplete bench option {flag!r}")
            return False

    if overlap_arg not in ("off", "on", "both"):
        out(f"--overlap must be off|on|both, not {overlap_arg!r}")
        return False
    overlap_modes = {"off": [False], "on": [True], "both": [False, True]}[
        overlap_arg
    ]

    cases = SMOKE_CASES if smoke else FULL_CASES
    pshapes = SMOKE_PSHAPES if smoke else FULL_PSHAPES
    if smoke:
        repeat = min(repeat, 1)

    from repro.util import format_table

    header = "engine-comparison benchmark" + (" (smoke)" if smoke else "")
    out(f"\n{header}\n{'=' * len(header)}")
    out(
        f"engines={','.join(engines)}  pshapes={pshapes}  repeat={repeat}  "
        f"multiprocess start method={start_method}  cores={os.cpu_count()}  "
        f"affinity={affinity}  payload_slab={payload_slab}  "
        f"overlap={overlap_arg}  backend={backend}\n"
    )

    results: list[dict[str, Any]] = []
    all_ok = True
    for version, shape, steps, note in cases:
        seq_fields = _sequential_fields(version, shape, steps)
        for pshape in pshapes:
            progs = {
                ov: _build(
                    version, shape, steps, pshape, overlap=ov, backend=backend
                )
                for ov in overlap_modes
            }
            par_batch = None
            if any("batch" in _parse_engine(e)[1] for e in engines):
                par_batch = _build(
                    version, shape, steps, pshape, batch=True, backend=backend
                )
            ranks = int(np.prod(pshape))
            reference_fields = None  # threaded result, per case
            per_engine_fields = {}
            for engine_name, overlap_flag in (
                (e, ov) for ov in overlap_modes for e in engines
            ):
                _, mods = _parse_engine(engine_name)
                if "batch" in mods:
                    # The overlapped program already coalesces each
                    # phase's exchange into one frame per neighbour, so
                    # a separate batch variant only exists at overlap
                    # off.
                    if overlap_flag:
                        continue
                    prog = par_batch
                else:
                    prog = progs[overlap_flag]
                engine = _make_engine(
                    engine_name, start_method, payload_slab, affinity,
                    hosts=hosts, daemons=daemons,
                )
                best = None
                result = None
                runs_total = 0.0
                try:
                    # One untimed warm-up run per row: pool boot,
                    # allocator growth, and first-touch page costs are
                    # paid here, for every engine alike, so the timed
                    # repeats measure steady state.
                    t0 = time.perf_counter()
                    engine.run(prog.to_parallel())
                    warmup_s = time.perf_counter() - t0
                    for _ in range(repeat):
                        # Hoisted: program construction is not part of
                        # the measurement.
                        system = prog.to_parallel()
                        t0 = time.perf_counter()
                        result = engine.run(system)
                        wall = time.perf_counter() - t0
                        timing = getattr(engine, "last_timing", None) or {
                            "run_s": wall,
                            "startup_s": 0.0,
                            "total_s": wall,
                        }
                        runs_total += timing["total_s"]
                        if best is None or timing["run_s"] < best["run_s"]:
                            best = dict(timing)
                finally:
                    close = getattr(engine, "close", None)
                    if close is not None:
                        close()
                fields = _fields_of(prog, result.stores)
                per_engine_fields[(engine_name, overlap_flag)] = fields
                near_ok = _identical(fields, seq_fields)
                all_ok &= near_ok
                frames = getattr(result, "channel_frames", {})
                row = {
                    "version": version,
                    "grid": list(shape),
                    "steps": steps,
                    "pshape": list(pshape),
                    "ranks": ranks,
                    "nprocs": ranks + 1,  # + host process
                    "engine": engine_name,
                    "overlap": overlap_flag,
                    "backend": backend,
                    "transport": _transport_of(engine_name),
                    "start_method": (
                        start_method
                        if engine_name.startswith("multiprocess")
                        else None
                    ),
                    "run_s": round(best["run_s"], 6),
                    "startup_s": round(best["startup_s"], 6),
                    "total_s": round(best["total_s"], 6),
                    "warmup_s": round(warmup_s, 6),
                    "runs_total_s": round(runs_total, 6),
                    "near_identical_to_sequential": near_ok,
                    "messages": sum(
                        s for s, _ in result.channel_stats.values()
                    ),
                    "bytes": sum(result.channel_bytes.values()),
                    "frames": sum(frames.values()),
                    "dx_frames": _exchange_frames(frames, prog.host),
                    "pipe_bytes": sum(
                        getattr(
                            result, "channel_pipe_bytes", {}
                        ).values()
                    ),
                    "shm_bytes": sum(
                        getattr(result, "channel_shm_bytes", {}).values()
                    ),
                    # Socket-transport syscall accounting (zero off the
                    # socket rows): vectored sends actually issued, the
                    # unvectored sender's count for the same frames,
                    # frames that left in multi-frame gather batches,
                    # and the deepest feeder coalescing window.
                    "net_syscalls": sum(
                        getattr(
                            result, "channel_net_syscalls", {}
                        ).values()
                    ),
                    "net_syscalls_unvectored": sum(
                        getattr(
                            result, "channel_net_syscalls_unvectored", {}
                        ).values()
                    ),
                    "net_vectored": sum(
                        getattr(
                            result, "channel_net_vectored", {}
                        ).values()
                    ),
                    "coalesce_hwm": max(
                        getattr(
                            result, "channel_coalesce_hwm", {}
                        ).values(),
                        default=0,
                    ),
                }
                results.append(row)
                if engine_name == "threaded" and reference_fields is None:
                    reference_fields = fields
            # Cross-backend equality (Theorem 1, now across engines —
            # including the pooled, batched and overlapped variants).
            if reference_fields is not None:
                for (engine_name, ov), fields in per_engine_fields.items():
                    same = _identical(fields, reference_fields)
                    all_ok &= same
                    if not same:
                        out(
                            f"MISMATCH: V{version} {pshape} {engine_name}"
                            f"{' overlap' if ov else ''} "
                            "differs from threaded"
                        )

    rows = [
        [
            f"V{r['version']}",
            "x".join(map(str, r["grid"])),
            "x".join(map(str, r["pshape"])),
            r["engine"],
            "on" if r["overlap"] else "off",
            f"{r['run_s'] * 1e3:.1f}",
            f"{r['startup_s'] * 1e3:.1f}",
            f"{r['runs_total_s'] * 1e3:.1f}",
            str(r["frames"]),
            "yes" if r["near_identical_to_sequential"] else "NO",
        ]
        for r in results
    ]
    out(
        format_table(
            [
                "version",
                "grid",
                "pshape",
                "engine",
                "overlap",
                "run ms",
                "startup ms",
                "all-runs ms",
                "frames",
                "identical",
            ],
            rows,
        )
    )

    # The long-standing engine-vs-engine checks compare the *baseline*
    # (overlap off) rows; overlap rows get their own checks below.
    def _rows_of(engine_name, overlap=False):
        return [
            r
            for r in results
            if r["engine"] == engine_name and r["overlap"] == overlap
        ]

    def _row_at(engine_name, version, pshape, overlap=False):
        for r in _rows_of(engine_name, overlap):
            if r["version"] == version and tuple(r["pshape"]) == pshape:
                return r
        return None

    checks: dict[str, Any] = {}

    # Headline check: OS-process backend at 4 ranks must not lose to
    # the GIL-bound threaded engine on the Version-A benchmark grid.
    if not smoke:
        mp_row = _row_at("multiprocess", "A", (2, 2, 1))
        th_row = _row_at("threaded", "A", (2, 2, 1))
        if mp_row is not None and th_row is not None:
            mp, th = mp_row["run_s"], th_row["run_s"]
            checks["multiprocess_le_threaded_versionA_4ranks"] = mp <= th
            checks["multiprocess_over_threaded_ratio"] = round(mp / th, 4)
            out(
                f"\nVersion A, 4 ranks: multiprocess {mp * 1e3:.1f} ms vs "
                f"threaded {th * 1e3:.1f} ms "
                f"({'OK' if mp <= th else 'SLOWER'})"
            )
            all_ok &= mp <= th

    # Batching check: the batched program must move strictly fewer wire
    # frames than the per-variable program, in every case — and on the
    # data-exchange channels proper exactly half: each phase ships two
    # components per inter-rank face (its ghost-read footprint), batched
    # into one frame.  An integer identity, not a threshold a ratio of
    # 2.00 would sit on.
    if "multiprocess" in engines and "multiprocess+batch" in engines:
        fewer = True
        half = True
        ratios = []
        for r in _rows_of("multiprocess"):
            b = _row_at(
                "multiprocess+batch", r["version"], tuple(r["pshape"])
            )
            if b is None:
                continue
            fewer &= b["frames"] < r["frames"]
            half &= r["dx_frames"] == 2 * b["dx_frames"]
            if b["dx_frames"]:
                ratios.append(r["dx_frames"] / b["dx_frames"])
        checks["batched_frames_lt_unbatched"] = fewer
        checks["batched_dx_frames_exactly_half"] = half
        all_ok &= fewer and half
        if ratios:
            worst = min(ratios)
            checks["batched_dx_frame_reduction_ge_2x"] = worst >= 2.0
            checks["batched_dx_frame_reduction_min_ratio"] = round(worst, 4)
            out(
                f"ghost-exchange frames (batched): "
                f"{'exactly half' if half else 'NOT half'} of unbatched "
                f"(worst ratio {worst:.2f}x)"
            )

    # Vectored-send check: on every socket row, the fast path must
    # issue at most half the send syscalls the unvectored sender (one
    # sendall per prefix, one per payload) would have issued for the
    # same frames — both counters are measured exactly by the framing
    # layer, so the ratio needs no re-run of the slow path.  Enforced
    # like the frame-reduction checks (the CI net-fastpath smoke job
    # asserts it on the batched ghost-exchange row).
    socket_rows = [
        r
        for r in results
        if r["transport"] == "socket" and r["net_syscalls"]
    ]
    if socket_rows:
        ratios = [
            r["net_syscalls_unvectored"] / r["net_syscalls"]
            for r in socket_rows
        ]
        worst = min(ratios)
        checks["net_send_syscall_reduction_ge_2x"] = worst >= 2.0
        checks["net_send_syscall_reduction_min_ratio"] = round(worst, 4)
        out(
            f"send-syscall reduction (vectored socket path): worst "
            f"{worst:.2f}x ({'OK' if worst >= 2.0 else 'BELOW 2x'})"
        )
        all_ok &= worst >= 2.0

    # Pool check: summed wall time of the timed repeats must be lower
    # with the persistent pool (parked workers re-dispatched, segments
    # recycled) than with per-run worker boot.  Needs at least two
    # repeats to amortize anything, so skipped in smoke.
    if (
        repeat >= 2
        and "multiprocess" in engines
        and "multiprocess+pool" in engines
    ):
        boot = sum(r["runs_total_s"] for r in _rows_of("multiprocess"))
        pooled = sum(
            r["runs_total_s"] for r in _rows_of("multiprocess+pool")
        )
        if boot and pooled:
            checks["pooled_total_lt_boot_total"] = pooled < boot
            checks["pooled_over_boot_ratio"] = round(pooled / boot, 4)
            out(
                f"pool amortization over {repeat} runs: pooled "
                f"{pooled * 1e3:.1f} ms vs per-run boot "
                f"{boot * 1e3:.1f} ms "
                f"({'OK' if pooled < boot else 'SLOWER'})"
            )
            all_ok &= pooled < boot

    # Overlap checks: moving sends earlier and receives later only buys
    # wall time where there is real concurrency to hide communication
    # in, so the throughput and blocked-time checks are recorded always
    # but enforced only on multi-core hosts (and outside smoke, whose
    # grids are noise-sized).
    observed = []
    if len(overlap_modes) == 2:
        multicore = bool(os.cpu_count() and os.cpu_count() > 1)
        enforce = multicore and not smoke
        check_pshape = (2, 2, 1) if (2, 2, 1) in pshapes else pshapes[0]

        base_row = _row_at("multiprocess+pool", "A", check_pshape)
        over_row = _row_at(
            "multiprocess+pool", "A", check_pshape, overlap=True
        )
        if base_row is not None and over_row is not None:
            speedup = base_row["run_s"] / over_row["run_s"]
            checks["overlap_speedup_multiprocess_pool"] = round(speedup, 4)
            checks["overlap_beats_baseline_ge_1p15x"] = speedup >= 1.15
            checks["overlap_checks_enforced"] = enforce
            out(
                f"\noverlap speedup (multiprocess+pool, Version A, "
                f"{'x'.join(map(str, check_pshape))}): {speedup:.2f}x "
                + ("(enforced)" if enforce else "(recorded only)")
            )
            if enforce:
                all_ok &= speedup >= 1.15

        # Compute/blocked split: one extra *observed* run per engine and
        # overlap mode, so the refinement's effect shows up in the
        # telemetry, not just the wall clock.
        from repro.runtime import make_engine

        obs_engines = [
            e for e in ("threaded", "multiprocess+pool") if e in engines
        ]
        obs_case = next((c for c in cases if c[0] == "A"), None)
        if obs_engines and obs_case is not None:
            _, obs_shape, obs_steps, _ = obs_case
            for engine_name in obs_engines:
                for ov in (False, True):
                    prog = _build(
                        "A",
                        obs_shape,
                        obs_steps,
                        check_pshape,
                        overlap=ov,
                        backend=backend,
                    )
                    kwargs: dict[str, Any] = {"observe": True}
                    if engine_name.startswith("multiprocess"):
                        kwargs.update(
                            start_method=start_method, affinity=affinity
                        )
                    engine = make_engine(engine_name, **kwargs)
                    try:
                        engine.run(prog.to_parallel())  # warm-up
                        result = engine.run(prog.to_parallel())
                    finally:
                        close = getattr(engine, "close", None)
                        if close is not None:
                            close()
                    report = result.report
                    grid_procs = [
                        p for p in report.processes if p.rank != prog.host
                    ]
                    n = len(grid_procs) or 1
                    observed.append(
                        {
                            "engine": engine_name,
                            "version": "A",
                            "pshape": list(check_pshape),
                            "overlap": ov,
                            "backend": backend,
                            "blocked_s_per_rank_mean": round(
                                sum(p.blocked for p in grid_procs) / n, 6
                            ),
                            "compute_s_per_rank_mean": round(
                                sum(p.compute for p in grid_procs) / n, 6
                            ),
                        }
                    )

        def _obs_at(engine_name, ov):
            for r in observed:
                if r["engine"] == engine_name and r["overlap"] == ov:
                    return r
            return None

        for engine_name in ("multiprocess+pool", "threaded"):
            b, o = _obs_at(engine_name, False), _obs_at(engine_name, True)
            if b is None or o is None:
                continue
            bb = b["blocked_s_per_rank_mean"]
            ob = o["blocked_s_per_rank_mean"]
            out(
                f"blocked time per rank ({engine_name}): "
                f"{bb * 1e3:.1f} ms off -> {ob * 1e3:.1f} ms on"
            )
            if "overlap_lowers_blocked_time" not in checks:
                # First engine with both rows (preferring the OS-process
                # backend) carries the enforced check.
                checks["overlap_lowers_blocked_time"] = ob < bb
                checks["overlap_blocked_ratio"] = round(
                    ob / bb, 4
                ) if bb else None
                if enforce:
                    all_ok &= ob < bb

    checks["all_near_fields_identical"] = all(
        r["near_identical_to_sequential"] for r in results
    )

    payload = {
        "meta": {
            "smoke": smoke,
            "repeat": repeat,
            "start_method": start_method,
            "overlap_modes": overlap_arg,
            "backend": backend,
            "engines": engines,
            "transports": sorted({_transport_of(e) for e in engines}),
            "hostname": platform.node(),
            "hosts": hosts,
            "daemons": (
                (len(hosts.split(",")) if hosts else daemons)
                if any(_transport_of(e) == "socket" for e in engines)
                else 0
            ),
            "affinity": affinity,
            "payload_slab": payload_slab,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "timing_note": (
                "every row gets one untimed warm-up run (warmup_s) before "
                "the timed repeats; run_s excludes worker startup for the "
                "multiprocess engine (post-barrier timing); startup_s "
                "reports it; in-process engines report wall time around "
                "run(); runs_total_s sums total_s over the timed repeats "
                "(what the pool amortizes); frames/pipe_bytes/shm_bytes "
                "are wire traffic and are zero for in-process engines; "
                "dx_frames counts grid-to-grid exchange-channel frames "
                "(host-facing collect traffic excluded); each row's "
                "transport names the wire its values crossed (memory/"
                "pipe/socket); daemons counts the socket rows' worker "
                "daemons (hosts when external, loopback otherwise); "
                "net_syscalls / net_syscalls_unvectored / net_vectored / "
                "coalesce_hwm are the socket rows' vectored-send "
                "accounting (send syscalls issued vs the unvectored "
                "sender's count for the same frames, frames leaving in "
                "multi-frame gather batches, deepest feeder coalescing "
                "window) and are zero on every other transport; on a "
                "single-core host loopback daemons timeshare one CPU, so "
                "socket-row timings measure transport cost, not "
                "parallel speedup"
            ),
        },
        "results": results,
        "observed": observed,
        "checks": checks,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    out(f"\nwrote {out_path}")
    return all_ok


# ---------------------------------------------------------------------------
# serve-bench — job-level serving throughput (python -m repro serve-bench)
# ---------------------------------------------------------------------------

#: (grid shape, steps, process grid) for the serving workload: many
#: *small* Version-A jobs, so job turnaround — not per-job compute — is
#: what the harness stresses.
SERVE_FULL_CASE = ((15, 15, 15), 3, (2, 1, 1))
SERVE_SMOKE_CASE = ((9, 9, 9), 2, (2, 1, 1))


def _serve_systems(par, jobs: int) -> list:
    """``jobs`` independent Systems of one parallel program (client-side
    construction, hoisted out of every timed region)."""
    return [par.to_parallel() for _ in range(jobs)]


def _latency_stats(
    latencies: list[float], startups: list[float]
) -> dict[str, float]:
    lat = sorted(latencies)

    def pct(q):
        return lat[min(len(lat) - 1, int(round(q * (len(lat) - 1))))]

    return {
        "latency_p50_s": round(pct(0.50), 6),
        "latency_p95_s": round(pct(0.95), 6),
        # Dispatch -> go barrier, the fixed part of each job's service.
        "startup_ms_p50": round(statistics.median(startups) * 1e3, 4),
    }


def _serve_row(
    mode, batch, jobs, elapsed, latencies, startups, identical, **extra
):
    row = {
        "mode": mode,
        "batch": batch,
        "jobs": jobs,
        "elapsed_s": round(elapsed, 6),
        "jobs_per_s": round(jobs / elapsed, 4) if elapsed else 0.0,
        "all_identical": identical,
        **_latency_stats(latencies, startups),
        **extra,
    }
    return row


def run_serve_bench(args: list[str], out=print) -> bool:
    """``python -m repro serve-bench`` — JobServer throughput harness.

    Closed-loop rows (every job's result checked bitwise against the
    sequential seed):

    * ``engine-serial[+batch]`` — a pooled engine run in a plain loop:
      the serialized-submission baseline;
    * ``serve-serial`` — the JobServer throttled to ``max_inflight=1``
      (server overhead at zero concurrency);
    * ``serve-concurrent[+batch]`` — the JobServer with
      ``--max-inflight`` jobs admitted at once over a pool sized to
      hold them all.

    Open-loop rows submit at fixed offered rates (0.5x / 1x / 2x the
    measured concurrent throughput) with ``on_full="reject"``,
    recording accepted/rejected counts and accepted-job latency.

    The concurrent-vs-serialized throughput checks are recorded always
    but only *enforced* on multi-core hosts — on one core, concurrent
    CPU-bound jobs cannot beat serialized execution and the numbers
    are reported as-is; result-identity checks are enforced
    everywhere.
    """
    smoke = False
    jobs = 16
    max_inflight = 4
    start_method = "fork"
    out_path = Path("benchmarks") / "BENCH_serve.json"
    affinity = None
    rest = list(args)
    while rest:
        flag = rest.pop(0)
        if flag == "--smoke":
            smoke = True
        elif flag == "--jobs" and rest:
            jobs = int(rest.pop(0))
        elif flag == "--max-inflight" and rest:
            max_inflight = int(rest.pop(0))
        elif flag == "--start-method" and rest:
            start_method = rest.pop(0)
        elif flag == "--out" and rest:
            out_path = Path(rest.pop(0))
        elif flag == "--affinity" and rest:
            spec = rest.pop(0)
            affinity = (
                "auto" if spec == "auto" else [int(c) for c in spec.split(",")]
            )
        else:
            out(f"unknown or incomplete serve-bench option {flag!r}")
            return False

    shape, steps, pshape = SERVE_SMOKE_CASE if smoke else SERVE_FULL_CASE
    if smoke:
        jobs = min(jobs, 6)
        max_inflight = min(max_inflight, 2)

    from repro.dist.engine import MultiprocessEngine
    from repro.dist.serve import JobServer, ServerSaturatedError
    from repro.util import format_table

    par = _build("A", shape, steps, pshape)
    par_batch = _build("A", shape, steps, pshape, batch=True)
    job_nprocs = int(np.prod(pshape)) + 1  # ranks + host
    pool_size = job_nprocs * max_inflight
    seq_fields = _sequential_fields("A", shape, steps)
    cpu_count = os.cpu_count()

    header = "serving benchmark" + (" (smoke)" if smoke else "")
    out(f"\n{header}\n{'=' * len(header)}")
    out(
        f"grid={shape} steps={steps} pshape={pshape} jobs={jobs} "
        f"max_inflight={max_inflight} pool_size={pool_size} slots "
        f"start_method={start_method} cores={cpu_count} "
        f"affinity={affinity}\n"
    )

    results: list[dict[str, Any]] = []
    all_ok = True

    def check_all(par_used, run_results) -> bool:
        nonlocal all_ok
        good = all(
            _identical(_fields_of(par_used, r.stores), seq_fields)
            for r in run_results
        )
        all_ok &= good
        return good

    # -- closed loop: serialized engine baseline ---------------------------
    for batch, par_used in ((False, par), (True, par_batch)):
        engine = MultiprocessEngine(
            start_method=start_method, pool=True, affinity=affinity
        )
        try:
            engine.run(par_used.to_parallel())  # warm-up: pool boot
            systems = _serve_systems(par_used, jobs)
            lat, startups, runs = [], [], []
            t0 = time.perf_counter()
            for system in systems:
                j0 = time.perf_counter()
                runs.append(engine.run(system))
                lat.append(time.perf_counter() - j0)
                startups.append(engine.last_timing["startup_s"])
            elapsed = time.perf_counter() - t0
        finally:
            engine.close()
        results.append(
            _serve_row(
                "engine-serial", batch, jobs, elapsed, lat, startups,
                check_all(par_used, runs),
            )
        )

    # -- closed loop: server, serialized and concurrent --------------------
    def serve_closed(mode, batch, par_used, inflight):
        with JobServer(
            pool_size,
            max_inflight=inflight,
            start_method=start_method,
            affinity=affinity,
        ) as server:
            server.submit(par_used.to_parallel()).result()  # warm-up
            systems = _serve_systems(par_used, jobs)
            t0 = time.perf_counter()
            futs = [server.submit(s) for s in systems]
            runs = [f.result() for f in futs]
            elapsed = time.perf_counter() - t0
            records = server.job_stats()[1:]  # minus the warm-up job
            stats = server.stats()
        lat = [r.latency_s for r in records]
        busy = sum(r.service_s * r.nprocs for r in records)
        results.append(
            _serve_row(
                mode, batch, jobs, elapsed, lat,
                [r.startup_s for r in records],
                check_all(par_used, runs),
                max_inflight=inflight,
                pool_size=pool_size,
                slot_utilization=round(busy / (pool_size * elapsed), 4),
                inflight_hwm=stats["inflight_hwm"],
            )
        )
        return jobs / elapsed

    serve_closed("serve-serial", False, par, 1)
    thr_concurrent = serve_closed("serve-concurrent", False, par, max_inflight)
    serve_closed("serve-concurrent", True, par_batch, max_inflight)

    # -- open loop: offered load with rejection ----------------------------
    for factor in (0.5, 1.0, 2.0):
        rate = max(thr_concurrent * factor, jobs / 30.0)  # bound the run
        with JobServer(
            pool_size,
            max_inflight=max_inflight,
            on_full="reject",
            start_method=start_method,
            affinity=affinity,
        ) as server:
            server.submit(par.to_parallel()).result()  # warm-up
            systems = _serve_systems(par, jobs)
            futs = []
            rejected = 0
            t0 = time.perf_counter()
            for i, system in enumerate(systems):
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    futs.append(server.submit(system))
                except ServerSaturatedError:
                    rejected += 1
            runs = [f.result() for f in futs]
            elapsed = time.perf_counter() - t0
            records = server.job_stats()[1:]
        lat = [r.latency_s for r in records if r.latency_s is not None]
        startups = [r.startup_s for r in records if r.startup_s is not None]
        results.append(
            _serve_row(
                "serve-open", False, len(runs), elapsed, lat or [0.0],
                startups or [0.0],
                check_all(par, runs),
                max_inflight=max_inflight,
                offered_factor=factor,
                offered_jobs_per_s=round(rate, 4),
                accepted=len(runs),
                rejected=rejected,
            )
        )

    rows = [
        [
            r["mode"] + ("+batch" if r["batch"] else ""),
            str(r["jobs"]),
            str(r.get("max_inflight", "-")),
            f"{r['jobs_per_s']:.2f}",
            f"{r['latency_p50_s'] * 1e3:.1f}",
            f"{r['latency_p95_s'] * 1e3:.1f}",
            f"{r['startup_ms_p50']:.1f}",
            str(r.get("rejected", "-")),
            "yes" if r["all_identical"] else "NO",
        ]
        for r in results
    ]
    out(
        format_table(
            [
                "mode",
                "jobs",
                "inflight",
                "jobs/s",
                "p50 ms",
                "p95 ms",
                "startup ms",
                "rejected",
                "identical",
            ],
            rows,
        )
    )

    def _thr(mode, batch=False):
        for r in results:
            if r["mode"] == mode and r["batch"] == batch:
                return r["jobs_per_s"]
        return None

    checks: dict[str, Any] = {}
    serialized = _thr("serve-serial")
    concurrent = _thr("serve-concurrent")
    multicore = bool(cpu_count and cpu_count > 1)
    if serialized and concurrent:
        ratio = concurrent / serialized
        checks["concurrent_over_serialized_ratio"] = round(ratio, 4)
        checks["concurrent_beats_serialized"] = ratio > 1.0
        checks["concurrent_ge_1p5x_serialized"] = ratio >= 1.5
        checks["throughput_checks_enforced"] = multicore
        out(
            f"\nconcurrent ({max_inflight} in flight) vs serialized: "
            f"{concurrent:.2f} vs {serialized:.2f} jobs/s = {ratio:.2f}x "
            + (
                "(enforced)"
                if multicore
                else f"(recorded only: {cpu_count} core)"
            )
        )
        if multicore:
            all_ok &= ratio > 1.0
            if not smoke:
                all_ok &= ratio >= 1.5
    checks["all_job_results_identical"] = all(
        r["all_identical"] for r in results
    )

    payload = {
        "meta": {
            "smoke": smoke,
            "transport": "pipe",  # serving runs on the pool's pipes
            "hostname": platform.node(),
            "daemons": 0,
            "jobs": jobs,
            "max_inflight": max_inflight,
            "pool_size_slots": pool_size,
            "job_nprocs": job_nprocs,
            "grid": list(shape),
            "steps": steps,
            "pshape": list(pshape),
            "start_method": start_method,
            "affinity": affinity,
            "cpu_count": cpu_count,
            "python": sys.version.split()[0],
            # Dispatch passes descriptors in-band; the fd-server thread
            # of multiprocessing must never have been needed.
            "resource_sharer_started": (
                resource_sharer._resource_sharer._listener is not None
            ),
            "timing_note": (
                "closed-loop rows submit all jobs at once (serve modes) or "
                "loop engine.run (engine-serial); every server gets one "
                "untimed warm-up job (pool boot) excluded from latencies; "
                "startup_ms_p50 is the median dispatch -> go-barrier time "
                "per job (JobStats.startup_s / engine.last_timing); "
                "open-loop rows submit at the offered rate with "
                "on_full=reject; throughput checks are enforced only on "
                "multi-core hosts, result-identity checks everywhere"
            ),
        },
        "results": results,
        "checks": checks,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    out(f"\nwrote {out_path}")
    return all_ok
