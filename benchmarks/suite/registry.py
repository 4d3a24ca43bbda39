"""What the suite measures: workloads, metrics, and the inputs made from a seed.

This module is the code-side source of truth that ``BENCHMARK.json``
mirrors (``python benchmarks/suite/registry.py`` prints the JSON;
``test_suite.py`` asserts the two agree).  It imports nothing from
``repro`` at module level so the self-test can load it without
``PYTHONPATH``; :func:`make_inputs` imports the FDTD application lazily.

Every workload is one *reference job* (what ``run_ms.*`` times on each
engine) plus one *batch* of jobs pushed through each serving front-end
in a closed loop (what ``jobs_per_s.*`` times; the front-ends admit two
jobs at a time, so a batch longer than one job keeps two in flight).
For the five FDTD workloads the batch is the reference job itself with
one client, so ``jobs_per_s.*`` there reads as the front-end's fixed
cost on a big job; ``serve_tiny`` is 27 tiny jobs with two in flight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

#: Seconds one untraced run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 15

#: Two compute ranks + the idle host rank: the box has two cores.
PSHAPE = (2, 1, 1)

ENGINES = ("threaded", "mp_pool", "socket")
PATHS = ("sequential",) + ENGINES
FRONT_ENDS = ("engine_serial", "jobserver", "fleet")

#: Milliseconds the host-calibration mix (interpreter loop, 256 KB NumPy,
#: 16 MB NumPy; ``harness.HostCalibration``) takes in the quiet state of
#: the host class the bounds were calibrated on.  Repetitions are divided
#: by the mix's time over this, so on another host every gated value
#: scales by one constant and comparisons between commits are unaffected.
CALIB_REF_MS = (5.0, 1.5, 3.45)

#: Full boot/warm-up/close cycles per untraced run; ``setup_s`` reports
#: their median so one slow fork does not decide it.
SETUP_CYCLES = 3


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    version: str  # "A" | "C"
    sizes: tuple[int, ...]  # cubic grid edge(s), cells
    steps: tuple[int, ...]
    build: dict = field(default_factory=dict)  # build_parallel_fdtd kwargs
    batch_jobs: int = 1
    #: engine runs of the reference job per round (tiny jobs need more
    #: samples per round for their minimum to settle)
    engine_reps: int = 1
    smoke_sizes: tuple[int, ...] = (13,)
    smoke_steps: tuple[int, ...] = (3,)
    smoke_batch_jobs: int = 1


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "near_large",
        "Version A 49^3 x 16 steps: 18 arrays of 1 MB, kernel-bound, so "
        "apps.fdtd work and the per-run store shipping of dist/dist.net "
        "show and per-message costs do not",
        "A", (49,), (16,),
        smoke_sizes=(17,), smoke_steps=(4,),
    ),
    Workload(
        "near_large_overlap",
        "same inputs as near_large with overlap=True: strip-tiled "
        "shell/interior kernels and split begin/end exchanges, so a "
        "full-region kernel gain that costs the strip path shows here",
        "A", (49,), (16,), build={"overlap": True},
        smoke_sizes=(17,), smoke_steps=(4,),
    ),
    Workload(
        "near_small",
        "Version A 25^3 x 60 steps, per-component exchanges: most of a "
        "run is mesh pack/unpack, channels, wire and syscalls, so "
        "per-message costs show and kernels do little",
        "A", (25,), (24,),
        smoke_sizes=(11,), smoke_steps=(8,),
    ),
    Workload(
        "near_small_batch",
        "same inputs as near_small with batch_exchanges=True: 3x fewer, "
        "3x larger frames, so a per-byte saving shows here and a "
        "per-message saving shows on near_small",
        "A", (25,), (24,), build={"batch_exchanges": True},
        smoke_sizes=(11,), smoke_steps=(8,),
    ),
    Workload(
        "far_mid",
        "Version C 33^3 x 20 steps with NTFF(gap=3): per-step surface "
        "sums and the far-field reduction through the host rank; near "
        "fields bitwise, potentials bitwise vs simulated and 1e-9 vs "
        "sequential",
        "C", (33,), (20,),
        smoke_sizes=(15,), smoke_steps=(4,),
    ),
    Workload(
        "serve_tiny",
        "closed loop, 2 in flight, batches of 27 Version A jobs of "
        "13..17^3 x 2..4 steps: dispatch, store shipping, collection "
        "and placement dominate, kernels do almost nothing",
        "A", (13, 15, 17), (2, 3, 4),
        batch_jobs=27, engine_reps=4,
        smoke_sizes=(9, 11), smoke_steps=(2, 3), smoke_batch_jobs=8,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    #: regression bound (end-to-end metrics only)
    bound: float | None = None
    #: per-layer metrics: (end-to-end metric, workload) pairs this layer
    #: number is expected to move — written down before measuring.
    moves: tuple[tuple[str, str], ...] = ()
    #: True when the value is a count that must repeat exactly
    exact: bool = False


def _e2e() -> tuple[Metric, ...]:
    out = [
        Metric(
            "run_ms.sequential", "ms", "lower",
            "VersionA/VersionC(config).run() of the reference job: the "
            "plain single-threaded baseline",
            bound=0.25,
        )
    ]
    what = {
        "threaded": 'make_engine("threaded").run(system)',
        "mp_pool": 'make_engine("multiprocess+pool", start_method="fork")'
        ".run(system)",
        "socket": 'make_engine("socket").run(system) on 2 loopback daemons',
    }
    for e in ENGINES:
        out.append(
            Metric(f"run_ms.{e}", "ms", "lower", what[e], bound=0.25)
        )
    out += [
        Metric(
            "jobs_per_s.engine_serial", "jobs/s", "higher",
            "the batch through the pooled MultiprocessEngine in a plain "
            "loop (1 in flight)",
            bound=0.25,
        ),
        Metric(
            "jobs_per_s.jobserver", "jobs/s", "higher",
            "the batch through JobServer(pool_size=6, max_inflight=2), "
            "closed loop",
            bound=0.25,
        ),
        Metric(
            "jobs_per_s.fleet", "jobs/s", "higher",
            "the batch through FleetScheduler(daemons=2, capacity=3, "
            "max_inflight=2, elastic=False), closed loop",
            bound=0.25,
        ),
        Metric(
            "setup_s", "s", "lower",
            "process start to first timed repetition: imports, program "
            "build, sequential reference, pool/daemon boot, one warm-up "
            "per path (median of the boot cycles)",
            bound=0.25,
        ),
        Metric(
            "peak_rss_mb", "MB", "lower",
            "max of RUSAGE_SELF and RUSAGE_CHILDREN ru_maxrss after the "
            "engines close",
            bound=0.25,
        ),
    ]
    return tuple(out)


END_TO_END: tuple[Metric, ...] = _e2e()

_KERNEL_BOUND = ("near_large", "near_large_overlap", "far_mid")
_COMM_BOUND = ("near_small", "near_small_batch")


def _on(metrics, workloads) -> tuple[tuple[str, str], ...]:
    return tuple((m, w) for m in metrics for w in workloads)


_ALL_RUN = tuple(f"run_ms.{p}" for p in PATHS)
_ENGINE_RUN = tuple(f"run_ms.{e}" for e in ENGINES)
LAYER_OF_ENGINE = {"threaded": "runtime", "mp_pool": "dist", "socket": "dist.net"}


def _per_layer() -> tuple[Metric, ...]:
    m: list[Metric] = []

    def add(name, unit, better, what, moves, exact=False):
        m.append(Metric(name, unit, better, what, moves=moves, exact=exact))

    kernel_moves = _on(_ALL_RUN, _KERNEL_BOUND)
    # -- apps.fdtd ----------------------------------------------------------
    for k, call in (
        ("update_e", "update_e"),
        ("update_h", "update_h"),
        ("mur", "Mur1.record+apply"),
    ):
        add(
            f"apps.fdtd.{k}_ms", "ms", "lower",
            f"one {call} call on rank 0's block, median of 20",
            kernel_moves,
        )
    add(
        "apps.fdtd.ntff_ms", "ms", "lower",
        "one NTFFAccumulator.accumulate_into on rank 0's block, median "
        "of 20",
        _on(_ALL_RUN, ("far_mid",)),
    )
    add(
        "apps.fdtd.mcells_per_s", "Mcells/s", "higher",
        "cells x steps / run_ms.sequential",
        _on(("run_ms.sequential",), _KERNEL_BOUND),
    )
    add(
        "apps.fdtd.bytes_per_cell_computed", "B/cell", "lower",
        "bytes read+written per cell per step, computed from array "
        "sizes (cache misses ignored)",
        kernel_moves, exact=True,
    )
    add(
        "apps.fdtd.split_kernel_ratio", "ratio", "lower",
        "update_e+update_h over split_local_update_regions tiles / over "
        "the full region, rank 0's block",
        _on(_ENGINE_RUN, ("near_large_overlap",)),
    )
    for e in ENGINES:
        add(
            f"apps.fdtd.compute_s_per_rank.{e}", "s", "lower",
            "mean over grid ranks of wall - blocked, from the engine's "
            "observe=True report",
            _on((f"run_ms.{e}",), _KERNEL_BOUND),
        )
    # -- archetypes.mesh / refinement --------------------------------------
    add(
        "archetypes.mesh.msgs_per_step", "count", "lower",
        "grid-to-grid channel sends per step (host channels excluded)",
        _on(_ENGINE_RUN, ("near_small",)), exact=True,
    )
    add(
        "archetypes.mesh.bytes_per_step", "B", "lower",
        "grid-to-grid channel payload bytes per step",
        _on(_ENGINE_RUN, ("near_small_batch",)), exact=True,
    )
    add(
        "refinement.build_ms", "ms", "lower", "build_parallel_fdtd(...)",
        _on(("setup_s",), ("serve_tiny", "near_large")),
    )
    add(
        "refinement.to_parallel_ms", "ms", "lower",
        "ParallelFDTD.to_parallel(): the mechanical transform",
        _on(("setup_s",), ("serve_tiny",)),
    )
    add(
        "refinement.simulated_ms", "ms", "lower",
        "run_simulated(); minus run_ms.sequential = cost of partitioning "
        "and the data-exchange operations in the simulated-parallel "
        "program",
        _on(_ENGINE_RUN, ("near_small",)),
    )
    # -- runtime ----------------------------------------------------------
    thr_comm = _on(("run_ms.threaded",), _COMM_BOUND)
    add(
        "runtime.channel_op_us", "us", "lower",
        "Channel.send + recv_nowait of a face-sized array", thr_comm,
    )
    add(
        "runtime.pingpong_us.threaded", "us", "lower",
        "round trip of a face-sized array between 2 processes of a "
        "ping-pong System",
        thr_comm,
    )
    add(
        "runtime.blocked_s_per_rank.threaded", "s", "lower",
        "mean over grid ranks of blocked-on-recv time (observe=True)",
        thr_comm + (("run_ms.threaded", "near_large_overlap"),),
    )
    add(
        "runtime.fixed_ms.threaded", "ms", "lower",
        "1-step run of the same grid: launch + collect",
        _on(("run_ms.threaded",), ("serve_tiny",)),
    )
    add(
        "runtime.step_ms.threaded", "ms", "lower",
        "(run_ms - fixed_ms) / (steps - 1)", thr_comm,
    )
    add(
        "runtime.run_ms.cooperative", "ms", "lower",
        "the simulated-parallel execution on CooperativeEngine: what "
        "repro.explore pays per schedule",
        _on(("run_ms.threaded",), ("near_small",)),
    )
    # -- dist -------------------------------------------------------------
    mp_comm = _on(("run_ms.mp_pool",), _COMM_BOUND) + (
        ("jobs_per_s.jobserver", "serve_tiny"),
    )
    mp_fixed = (
        ("run_ms.mp_pool", "near_large"),
        ("jobs_per_s.engine_serial", "serve_tiny"),
        ("jobs_per_s.jobserver", "serve_tiny"),
    )
    add("dist.wire.encode_us", "us", "lower",
        "wire.encode of a face-sized float64 array", mp_comm)
    add("dist.wire.decode_us", "us", "lower",
        "wire.decode of the same", mp_comm)
    add("dist.shm.share_store_ms", "ms", "lower",
        "SharedStoreArena.share_store of rank 0's store", mp_fixed)
    add("dist.shm.readback_ms", "ms", "lower",
        "SharedStoreArena.readback of the same", mp_fixed)
    add("dist.pool.boot_ms", "ms", "lower", "WorkerPool.ensure(3)",
        _on(("setup_s",), ("serve_tiny", "near_small")))
    add("dist.pingpong_us.mp_pool", "us", "lower",
        "ping-pong System round trip on the pooled engine", mp_comm)
    add("dist.blocked_s_per_rank.mp_pool", "s", "lower",
        "mean blocked-on-recv time per grid rank (observe=True)",
        _on(("run_ms.mp_pool",), _COMM_BOUND + ("near_large_overlap",)))
    add("dist.fixed_ms.mp_pool", "ms", "lower",
        "1-step run of the same grid: share, dispatch, collect, readback",
        mp_fixed)
    add("dist.step_ms.mp_pool", "ms", "lower",
        "(run_ms - fixed_ms) / (steps - 1)", mp_comm)
    add("dist.frames_per_run", "count", "lower",
        "pipe frames written in one pooled run", mp_comm, exact=True)
    add("dist.pipe_bytes_per_run", "B", "lower",
        "bytes through the pipes in one pooled run", mp_comm, exact=True)
    add("dist.shm_bytes_per_run", "B", "lower",
        "payload bytes staged through shm slabs in one pooled run",
        mp_comm, exact=True)
    add("dist.cold_run_ms.multiprocess", "ms", "lower",
        "un-pooled engine: construct + run + close, best of 3 (what the "
        "pool amortises)",
        _on(("setup_s",), ("near_large", "serve_tiny")))
    # -- dist.net ---------------------------------------------------------
    net_comm = _on(("run_ms.socket",), _COMM_BOUND) + (
        ("jobs_per_s.fleet", "serve_tiny"),
    )
    net_fixed = (
        ("run_ms.socket", "near_large"),
        ("jobs_per_s.fleet", "serve_tiny"),
    )
    add("dist.net.frame_send_us", "us", "lower",
        "FrameStream.send_bytes of a face-sized payload over a socketpair",
        net_comm)
    add("dist.net.frame_recv_us", "us", "lower",
        "FrameStream.recv_bytes_into of the same", net_comm)
    add("dist.net.pingpong_us.socket", "us", "lower",
        "ping-pong System round trip between 2 loopback daemons", net_comm)
    add("dist.net.blocked_s_per_rank.socket", "s", "lower",
        "mean blocked-on-recv time per grid rank (observe=True)",
        _on(("run_ms.socket",), _COMM_BOUND + ("near_large_overlap",)))
    add("dist.net.fixed_ms.socket", "ms", "lower",
        "1-step run of the same grid: dial, ship stores by value, collect",
        net_fixed)
    add("dist.net.step_ms.socket", "ms", "lower",
        "(run_ms - fixed_ms) / (steps - 1)", net_comm)
    add("dist.net.syscalls_per_run", "count", "lower",
        "send syscalls issued on the TCP streams in one run (gather "
        "writes; flush-window coalescing makes it vary by ~1 %)",
        net_comm)
    add("dist.net.bytes_per_run", "B", "lower",
        "data-plane bytes on the TCP streams plus the pickled stores "
        "shipped to the daemons by value",
        net_fixed, exact=True)
    add("dist.net.daemon_spawn_ms", "ms", "lower",
        "spawn_loopback_daemons(2)",
        _on(("setup_s",), ("serve_tiny", "near_small")))
    # -- dist.serving / dist.fleet ----------------------------------------
    js = (("jobs_per_s.jobserver", "serve_tiny"),)
    fl = (("jobs_per_s.fleet", "serve_tiny"),)
    add("dist.serving.submit_us", "us", "lower",
        "JobServer.submit() call, median", js + fl)
    add("dist.serving.queue_wait_ms_p50", "ms", "lower",
        "JobStats.queue_wait_s median", js)
    add("dist.serving.service_ms_p50", "ms", "lower",
        "JobStats.service_s median", js)
    add("dist.serving.job_ms_p50", "ms", "lower",
        "JobStats.latency_s median", js)
    add("dist.serving.job_ms_p95", "ms", "lower",
        "JobStats.latency_s p95 (320 samples on serve_tiny: 16 beyond)",
        js)
    add("dist.serving.slot_utilization", "ratio", "higher",
        "busy slot-seconds / (pool_size x elapsed), from JobServer.stats()",
        js)
    add("dist.fleet.job_ms_p50", "ms", "lower",
        "FleetScheduler JobStats.latency_s median", fl)
    add("dist.fleet.job_ms_p95", "ms", "lower",
        "FleetScheduler JobStats.latency_s p95", fl)
    add("dist.fleet.attempts_per_job", "ratio", "lower",
        "mean JobStats.attempts (1.0 on a healthy fleet)", fl, exact=True)
    add("dist.fleet.net_syscalls_per_job", "count", "lower",
        "send syscalls issued per served job", fl)
    # -- perfmodel --------------------------------------------------------
    for e in ENGINES:
        add(
            f"perfmodel.pred_over_meas.{e}", "ratio", "lower",
            "estimate_parallel_time under a MachineModel calibrated in "
            "this run (flop rate from the kernel probes, latency from the "
            f"ping-pong, bandwidth from the wire probes) / run_ms.{e}",
            _on((f"run_ms.{e}",), ("near_large", "near_small")),
        )
    add("perfmodel.counts_agree", "bool", "higher",
        "1 iff obs.validate.fdtd_model_comparison is exact (the model "
        "counts per-variable messages, so 0 on batched/overlapped "
        "programs)",
        _on(_ENGINE_RUN, ("near_small",)), exact=True)
    # -- obs / host -------------------------------------------------------
    for e in ENGINES:
        add(
            f"obs.observe_overhead_pct.{e}", "%", "lower",
            "observe=True run over the untraced best of the same pass; "
            "moves run_ms only when tracing is on",
            _on((f"run_ms.{e}",), ("near_small",)),
        )
    add("host.calib_ms", "ms", "lower",
        "fixed NumPy triad on 2 MB arrays before the workload",
        _on(_ALL_RUN, ("near_large",)))
    add("host.calib_drift_pct", "%", "lower",
        "triad after the workload over before",
        _on(_ALL_RUN, ("near_large",)))
    return tuple(m)


PER_LAYER: tuple[Metric, ...] = _per_layer()


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this registry implies."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# Inputs from a seed
# ---------------------------------------------------------------------------


@dataclass
class JobKind:
    """One distinct program of a workload (grid x steps x inputs)."""

    config: object  # FDTDConfig
    version: str
    ntff: object | None  # NTFFConfig for Version C
    build: dict


@dataclass
class Inputs:
    workload: Workload
    seed: int
    kinds: list[JobKind]
    #: index into ``kinds`` of the job ``run_ms.*`` times
    reference: int
    #: one batch, as indices into ``kinds`` (order drawn from the seed)
    batch: list[int]


def _fdtd_config(rng, n: int, steps: int):
    from repro.apps.fdtd import (
        FDTDConfig,
        GaussianPulse,
        Material,
        MaterialGrid,
        PointSource,
        YeeGrid,
    )

    grid = YeeGrid(shape=(n, n, n))
    third = n // 3
    position = tuple(int(rng.integers(third, n - third + 1)) for _ in range(3))
    pulse = GaussianPulse(
        delay=float(rng.uniform(8.0, 12.0)),
        spread=float(rng.uniform(2.5, 3.5)),
    )
    edge = max(2, n // 5)
    lo = tuple(int(rng.integers(1, n - edge)) for _ in range(3))
    hi = tuple(a + edge for a in lo)
    materials = MaterialGrid(grid).add_box(
        lo, hi, Material(eps_r=float(rng.uniform(2.0, 6.0)), name="box")
    )
    return FDTDConfig(
        grid=grid,
        steps=steps,
        materials=materials,
        sources=[PointSource("ez", position, pulse)],
        boundary="mur1",
    )


def make_inputs(name: str, seed: int, smoke: bool = False) -> Inputs:
    """Generate a workload's inputs; the program only ever sees these."""
    import numpy as np

    w = WORKLOAD_BY_NAME[name]
    # Paired workloads (near_large/_overlap, near_small/_batch) must see
    # the same inputs, so the stream depends on the seed alone.
    rng = np.random.default_rng([seed, 0x1998])
    sizes = w.smoke_sizes if smoke else w.sizes
    steps = w.smoke_steps if smoke else w.steps
    ntff = None
    if w.version == "C":
        from repro.apps.fdtd import NTFFConfig

        ntff = NTFFConfig(gap=3)
    kinds = [
        JobKind(_fdtd_config(rng, n, s), w.version, ntff, dict(w.build))
        for n in sizes
        for s in steps
    ]
    njobs = w.smoke_batch_jobs if smoke else w.batch_jobs
    # A fixed multiset (every kind equally often, remainder to the
    # middle kinds) in seed-drawn order: the same total work per seed.
    reps, extra = divmod(njobs, len(kinds))
    batch = [k for k in range(len(kinds)) for _ in range(reps)]
    mid = len(kinds) // 2
    batch += [(mid + i) % len(kinds) for i in range(extra)]
    rng.shuffle(batch)
    return Inputs(
        workload=w,
        seed=seed,
        kinds=kinds,
        reference=len(kinds) - 1,  # the largest grid x most steps
        batch=[int(k) for k in batch],
    )


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
