"""The traced pass: one ledger of layer costs, measured from outside.

After the untraced timings, each workload gets one pass with tracing
on: spans around every call the suite makes into a layer, one
``observe=True`` run per engine (the engines' own public report gives
the per-rank compute/blocked split), and small probes that time single
public functions of each layer on data shaped like the workload's.
Every probe runs for every workload — a layer a workload does not use
is then visible as a number that cannot explain its run time.

"Face-sized" below means one ghost face of rank 0's block.
"""

from __future__ import annotations

import socket
import statistics
import time
from dataclasses import replace

import numpy as np

from repro.apps.fdtd import Mur1, NTFFAccumulator, NTFFConfig
from repro.apps.fdtd.boundary import MUR_FACES, mur_face_regions
from repro.apps.fdtd.update import (
    KernelScratch,
    intersect_local,
    local_update_regions,
    split_local_update_regions,
    update_e,
    update_h,
)
from repro.dist import closures, wire
from repro.dist.net.engine import spawn_loopback_daemons, stop_loopback_daemons
from repro.dist.net.frames import FrameStream
from repro.dist.pool import WorkerPool
from repro.dist.serving import percentile
from repro.dist.shm import SharedStoreArena
from repro.obs.validate import fdtd_model_comparison
from repro.perfmodel import MachineModel, estimate_parallel_time
from repro.perfmodel.costmodel import FLOPS_PER_NODE_STEP
from repro.runtime import Channel, ChannelSpec, ProcessSpec, System, make_engine

import harness
import registry
from harness import Ledger, Prepared, Stack, run_batch, run_engine
from spans import Tracer

_LAYER = registry.LAYER_OF_ENGINE


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _best_of(fn, reps: int) -> float:
    """Seconds of the fastest of ``reps`` calls (``fn`` returns seconds
    or ``None`` on failure)."""
    times = [t for t in (fn() for _ in range(reps)) if t is not None]
    return min(times) if times else float("nan")


# ---------------------------------------------------------------------------
# Kernel probes: apps.fdtd on rank 0's block
# ---------------------------------------------------------------------------


def probe_kernels(prep: Prepared, tracer: Tracer, reps: int) -> dict:
    grid = prep.kind.config.grid
    decomp = prep.par.decomp
    store = prep.system.processes[0].fresh_store()
    inv = tuple(1.0 / d for d in grid.spacing)
    scratch = KernelScratch()
    regions = local_update_regions(grid, decomp, 0)
    out = {}
    with tracer.span("probe.update_e", reps):
        out["apps.fdtd.update_e_ms"] = _median_ms(
            lambda: update_e(store, regions, inv, scratch), reps
        )
    with tracer.span("probe.update_h", reps):
        out["apps.fdtd.update_h_ms"] = _median_ms(
            lambda: update_h(store, regions, inv, scratch), reps
        )

    mur_regions = {}
    for comp, axis, side in MUR_FACES:
        face, inward = mur_face_regions(grid, comp, axis, side)
        local_face = intersect_local(decomp, 0, face)
        if local_face is not None:
            mur_regions[(comp, axis, side)] = (
                local_face,
                intersect_local(decomp, 0, inward),
            )
    mur = Mur1(grid, mur_regions)

    def mur_step():
        mur.record(store)
        mur.apply(store)

    with tracer.span("probe.mur", reps):
        out["apps.fdtd.mur_ms"] = _median_ms(mur_step, reps)

    ntff = NTFFAccumulator(
        grid, NTFFConfig(gap=3), steps=prep.steps, restrict=(decomp, 0)
    )
    pot_a = np.zeros_like(ntff.A)
    pot_f = np.zeros_like(ntff.F)
    with tracer.span("probe.ntff", reps):
        out["apps.fdtd.ntff_ms"] = _median_ms(
            lambda: ntff.accumulate_into(store, 0, pot_a, pot_f), reps
        )

    shell, interior = split_local_update_regions(grid, decomp, 0)
    tiles = {c: shell[c] + interior[c] for c in shell}

    def full():
        update_e(store, regions, inv, scratch)
        update_h(store, regions, inv, scratch)

    def split():
        update_e(store, tiles, inv, scratch)
        update_h(store, tiles, inv, scratch)

    with tracer.span("probe.split_kernels", 2 * reps):
        out["apps.fdtd.split_kernel_ratio"] = _median_ms(
            split, reps
        ) / _median_ms(full, reps)

    # Per cell and step, each half-step reads its three own fields, the
    # three opposite fields and six coefficient arrays, and writes three.
    nodes = int(np.prod(grid.node_shape))
    out["apps.fdtd.bytes_per_cell_computed"] = (
        2 * (12 + 3) * 8 * nodes / grid.ncells
    )
    return out


# ---------------------------------------------------------------------------
# Substrate probes: runtime channel, dist.wire, dist.net frames, dist.shm
# ---------------------------------------------------------------------------


def face_array(prep: Prepared) -> np.ndarray:
    local = prep.par.decomp.local_shape(0)
    return np.linspace(0.0, 1.0, local[1] * local[2]).reshape(
        1, local[1], local[2]
    )


def probe_substrate(prep: Prepared, tracer: Tracer, reps: int) -> dict:
    face = face_array(prep)
    out = {}

    channel = Channel(ChannelSpec("probe", 0, 1))

    def channel_op():
        channel.send(face, rank=0)
        channel.recv_nowait(rank=1)

    with tracer.span("probe.channel", reps):
        out["runtime.channel_op_us"] = _median_ms(channel_op, reps) * 1e3

    with tracer.span("probe.wire.encode", reps):
        out["dist.wire.encode_us"] = (
            _median_ms(lambda: wire.encode(face), reps) * 1e3
        )
    header, buffers, _ = wire.encode(face)
    with tracer.span("probe.wire.decode", reps):
        out["dist.wire.decode_us"] = (
            _median_ms(lambda: wire.decode(header, buffers), reps) * 1e3
        )

    a, b = socket.socketpair()
    sender, receiver = FrameStream(a), FrameStream(b)
    payload = memoryview(face).cast("B")
    sink = np.empty_like(face)
    send_s, recv_s = [], []
    try:
        with tracer.span("probe.frames", reps):
            for _ in range(reps):
                t0 = time.perf_counter()
                sender.send_bytes(payload)
                t1 = time.perf_counter()
                receiver.recv_bytes_into(sink)
                t2 = time.perf_counter()
                send_s.append(t1 - t0)
                recv_s.append(t2 - t1)
    finally:
        sender.close()
        receiver.close()
    out["dist.net.frame_send_us"] = statistics.median(send_s) * 1e6
    out["dist.net.frame_recv_us"] = statistics.median(recv_s) * 1e6

    store = prep.system.processes[0].store
    share_s, read_s = [], []
    arena = SharedStoreArena()
    try:
        with tracer.span("probe.shm", 5):
            for _ in range(5):
                t0 = time.perf_counter()
                plan, _rest = arena.share_store(store)
                t1 = time.perf_counter()
                arena.readback(plan)
                t2 = time.perf_counter()
                arena.recycle()
                share_s.append(t1 - t0)
                read_s.append(t2 - t1)
    finally:
        arena.cleanup()
    out["dist.shm.share_store_ms"] = statistics.median(share_s) * 1e3
    out["dist.shm.readback_ms"] = statistics.median(read_s) * 1e3
    return out


def probe_boot(prep: Prepared, tracer: Tracer, ledger: Ledger) -> dict:
    """What the pool and the daemons amortise.  Forks, so it runs while
    this process is single-threaded."""
    out = {}
    with tracer.span("probe.pool_boot"):
        pool = WorkerPool("fork")
        try:
            t0 = time.perf_counter()
            pool.ensure(3)
            out["dist.pool.boot_ms"] = (time.perf_counter() - t0) * 1e3
        finally:
            pool.shutdown()
    with tracer.span("probe.daemon_spawn"):
        t0 = time.perf_counter()
        addrs, procs = spawn_loopback_daemons(2)
        out["dist.net.daemon_spawn_ms"] = (time.perf_counter() - t0) * 1e3
        stop_loopback_daemons(addrs, procs)

    cold = Stack()

    def cold_run():
        t0 = time.perf_counter()
        cold.engines["cold"] = make_engine("multiprocess", start_method="fork")
        ok = run_engine(cold, "cold", prep, ledger)
        cold.close()
        return None if ok is None else time.perf_counter() - t0

    with tracer.span("probe.cold_run", 3):
        out["dist.cold_run_ms.multiprocess"] = _best_of(cold_run, 3) * 1e3
    return out


# ---------------------------------------------------------------------------
# Ping-pong: per-message latency of each engine's channels
# ---------------------------------------------------------------------------


def pingpong_system(face: np.ndarray, rounds: int) -> System:
    def ping(ctx):
        import time as _time

        value = ctx.store["face"]
        t0 = _time.perf_counter()
        for _ in range(rounds):
            ctx.send("ab", value)
            value = ctx.recv("ba")
        return _time.perf_counter() - t0

    def pong(ctx):
        for _ in range(rounds):
            ctx.send("ba", ctx.recv("ab"))

    return System(
        [ProcessSpec(0, ping, {"face": face}), ProcessSpec(1, pong, {})],
        [ChannelSpec("ab", 0, 1), ChannelSpec("ba", 1, 0)],
    )


def probe_pingpong(
    stack: Stack, prep: Prepared, tracer: Tracer, ledger: Ledger, rounds: int
) -> dict:
    face = face_array(prep)
    system = pingpong_system(face, rounds)
    out = {}
    for e in registry.ENGINES:
        with tracer.span(f"probe.pingpong.{e}", rounds):
            best = float("inf")
            for _ in range(2):
                try:
                    with harness.deadline(harness.OP_TIMEOUT_S):
                        result = stack.engines[e].run(system)
                except Exception as exc:  # noqa: BLE001
                    ledger.fail(f"pingpong.{e}: {type(exc).__name__}: {exc}")
                    continue
                ledger.ok()
                best = min(best, result.returns[0])
        name = f"{_LAYER[e]}.pingpong_us.{e}"
        out[name] = best / rounds * 1e6
    return out


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


def _grid_channels(prep: Prepared) -> set[str]:
    host = prep.par.host
    return {
        s.name
        for s in prep.system.channel_specs
        if s.writer != host and s.reader != host
    }


def _per_rank(report, what: str, grid_size: int) -> float:
    values = [
        getattr(p, what) for p in report.processes if p.rank < grid_size
    ]
    return sum(values) / len(values)


def _one_step(prep: Prepared, tracer: Tracer) -> Prepared:
    """The same grid and inputs, one time step: its run time is the
    engines' per-run fixed cost."""
    kind = replace(prep.kind, config=replace(prep.kind.config, steps=1))
    return harness.prepare(kind, tracer)


def trace_pass(
    inputs: registry.Inputs,
    tracer: Tracer,
    ledger: Ledger,
    smoke: bool,
) -> dict:
    """All per-layer metrics of one workload, by name."""
    m: dict[str, float] = {}
    reps = 5 if smoke else 20
    run_reps = 2 if smoke else 3

    with tracer.span("host.calib"):
        calib = harness.HostCalibration()
        m["host.calib_ms"] = sum(calib.parts_ms())
    segments_before = harness.live_segment_names()

    with tracer.span("prepare"):
        preps = [harness.prepare(k, tracer) for k in inputs.kinds]
    ref = preps[inputs.reference]
    build = [s for s in tracer.spans if s.name == "build"]
    to_par = [s for s in tracer.spans if s.name == "to_parallel"]
    m["refinement.build_ms"] = build[inputs.reference].duration * 1e3
    m["refinement.to_parallel_ms"] = to_par[inputs.reference].duration * 1e3
    with tracer.span("prepare.one_step"):
        one = _one_step(ref, Tracer(tracer.workload, False))

    with tracer.span("probes"):
        m.update(probe_kernels(ref, tracer, reps))
        m.update(probe_substrate(ref, tracer, reps))
        m.update(probe_boot(ref, tracer, ledger))
        with tracer.span("probe.simulated"):
            fresh = harness.build_program(ref.kind)
            t0 = time.perf_counter()
            fresh.run_simulated()
            m["refinement.simulated_ms"] = (time.perf_counter() - t0) * 1e3
        with tracer.span("probe.cooperative"):
            coop = Stack()
            coop.engines["cooperative"] = make_engine("cooperative")
            m["runtime.run_ms.cooperative"] = (
                _best_of(
                    lambda: run_engine(coop, "cooperative", ref, ledger), 2
                )
                * 1e3
            )

    # -- untraced engines: run_ms, fixed_ms, ping-pong, front-ends --------
    stack = Stack()
    run_ms: dict[str, float] = {}
    kept: dict[str, list] = {e: [] for e in registry.ENGINES}
    try:
        with tracer.span("boot"):
            stack.boot(ref, tracer, ledger)
        for path in registry.PATHS:
            with tracer.span(f"engine.run.{path}", run_reps):
                run_ms[path] = (
                    _best_of(
                        lambda: run_engine(
                            stack, path, ref, ledger, keep=kept.get(path)
                        ),
                        run_reps,
                    )
                    * 1e3
                )
        for e in registry.ENGINES:
            with tracer.span(f"engine.run1.{e}", run_reps + 1):
                run_engine(stack, e, one, ledger)  # warm this program
                fixed = (
                    _best_of(
                        lambda: run_engine(stack, e, one, ledger), run_reps
                    )
                    * 1e3
                )
            layer = _LAYER[e]
            m[f"{layer}.fixed_ms.{e}"] = fixed
            m[f"{layer}.step_ms.{e}"] = (run_ms[e] - fixed) / max(
                1, ref.steps - 1
            )
        m.update(
            probe_pingpong(stack, ref, tracer, ledger, 20 if smoke else 200)
        )
        m.update(_serving(stack, inputs, preps, tracer, ledger, smoke))
    finally:
        with tracer.span("close"):
            stack.close()

    m["apps.fdtd.mcells_per_s"] = (
        ref.cells * ref.steps / (run_ms["sequential"] * 1e-3) / 1e6
    )
    grid = _grid_channels(ref)
    a_run = kept["threaded"][-1]
    m["archetypes.mesh.msgs_per_step"] = (
        sum(a_run.channel_stats[c][0] for c in grid) / ref.steps
    )
    m["archetypes.mesh.bytes_per_step"] = (
        sum(a_run.channel_bytes[c] for c in grid) / ref.steps
    )
    mp_run = kept["mp_pool"][-1]
    m["dist.frames_per_run"] = sum(mp_run.channel_frames.values())
    m["dist.pipe_bytes_per_run"] = sum(mp_run.channel_pipe_bytes.values())
    m["dist.shm_bytes_per_run"] = sum(mp_run.channel_shm_bytes.values())
    net_run = kept["socket"][-1]
    m["dist.net.syscalls_per_run"] = sum(
        net_run.channel_net_syscalls.values()
    )
    m["dist.net.bytes_per_run"] = sum(
        net_run.channel_pipe_bytes.values()
    ) + sum(len(closures.dumps(p.store)) for p in ref.system.processes)

    # -- observed engines: the per-rank compute/blocked split --------------
    observed = Stack(observe=True, front_ends=False)
    reports = {}
    try:
        with tracer.span("boot.observed"):
            observed.boot(ref, tracer, ledger)
        for e in registry.ENGINES:
            results: list = []
            with tracer.span(f"engine.run.{e}.observed", 2):
                seconds = _best_of(
                    lambda: run_engine(observed, e, ref, ledger, keep=results),
                    2,
                )
            if not results:
                continue
            report = reports[e] = results[-1].report
            grid_size = ref.par.grid_size
            m[f"apps.fdtd.compute_s_per_rank.{e}"] = _per_rank(
                report, "compute", grid_size
            )
            m[f"{_LAYER[e]}.blocked_s_per_rank.{e}"] = _per_rank(
                report, "blocked", grid_size
            )
            m[f"obs.observe_overhead_pct.{e}"] = (
                (seconds * 1e3 - run_ms[e]) / run_ms[e] * 100.0
            )
    finally:
        with tracer.span("close.observed"):
            observed.close()

    with tracer.span("perfmodel"):
        m.update(_perfmodel(ref, m, run_ms))
        agree = "threaded" in reports and fdtd_model_comparison(
            ref.par, reports["threaded"]
        ).agreement()
        m["perfmodel.counts_agree"] = 1.0 if agree else 0.0

    with tracer.span("leak_check"):
        harness.check_leaks(segments_before, ledger)
    with tracer.span("host.calib"):
        after = sum(calib.parts_ms())
    m["host.calib_drift_pct"] = (
        (after - m["host.calib_ms"]) / m["host.calib_ms"] * 100.0
    )
    return m


def _serving(stack, inputs, preps, tracer, ledger, smoke) -> dict:
    """Job-level accounting from the front-ends' own public records."""
    batches = 1 if smoke else (5 if len(inputs.batch) > 1 else 4)
    out = {}
    submit_s: list[float] = []
    for front, server in (("jobserver", stack.jobserver), ("fleet", stack.fleet)):
        skip = len(server.job_stats())  # the warm-up jobs
        results: list = []
        with tracer.span(f"serve.{front}", batches * len(inputs.batch)):
            for _ in range(batches):
                run_batch(
                    stack, front, preps, inputs.batch, ledger,
                    keep=results, submit_s=submit_s,
                )
        records = [r for r in server.job_stats()[skip:] if r.ok]
        latency = sorted(r.latency_s for r in records) or [float("nan")]
        if front == "jobserver":
            waits = sorted(r.queue_wait_s for r in records) or [float("nan")]
            service = sorted(r.service_s for r in records) or [float("nan")]
            out["dist.serving.submit_us"] = statistics.median(submit_s) * 1e6
            out["dist.serving.queue_wait_ms_p50"] = percentile(waits, 0.5) * 1e3
            out["dist.serving.service_ms_p50"] = percentile(service, 0.5) * 1e3
            out["dist.serving.job_ms_p50"] = percentile(latency, 0.5) * 1e3
            out["dist.serving.job_ms_p95"] = percentile(latency, 0.95) * 1e3
            out["dist.serving.slot_utilization"] = server.stats().get(
                "slot_utilization", float("nan")
            )
        else:
            out["dist.fleet.job_ms_p50"] = percentile(latency, 0.5) * 1e3
            out["dist.fleet.job_ms_p95"] = percentile(latency, 0.95) * 1e3
            out["dist.fleet.attempts_per_job"] = sum(
                r.attempts for r in records
            ) / max(1, len(records))
            out["dist.fleet.net_syscalls_per_job"] = sum(
                sum(r.channel_net_syscalls.values())
                for r in results
            ) / max(1, len(results))
    return out


def _perfmodel(ref: Prepared, m: dict, run_ms: dict) -> dict:
    """``perfmodel`` checked in seconds: a machine calibrated from this
    pass's own probes, its prediction over the measured run."""
    decomp = ref.par.decomp
    face_bytes = face_array(ref).nbytes
    nodes0 = int(np.prod(decomp.owned_shape(0)))
    kernel_s = (m["apps.fdtd.update_e_ms"] + m["apps.fdtd.update_h_ms"]) * 1e-3
    flop_rate = nodes0 * FLOPS_PER_NODE_STEP / kernel_s
    per_byte_s = {
        "threaded": m["runtime.channel_op_us"] * 1e-6,
        "mp_pool": (m["dist.wire.encode_us"] + m["dist.wire.decode_us"]) * 1e-6,
        "socket": (m["dist.net.frame_send_us"] + m["dist.net.frame_recv_us"])
        * 1e-6,
    }
    out = {}
    for e in registry.ENGINES:
        machine = MachineModel(
            name=f"this host, {e}",
            flop_rate=flop_rate,
            latency=m[f"{_LAYER[e]}.pingpong_us.{e}"] * 1e-6 / 2,
            bandwidth=face_bytes / per_byte_s[e],
            word_bytes=8,
        )
        predicted = estimate_parallel_time(
            ref.kind.config.grid.shape,
            ref.steps,
            decomp.nprocs,
            machine,
            version=ref.kind.version,
            pgrid=registry.PSHAPE,
            ntff_gap=3,
        ).total
        out[f"perfmodel.pred_over_meas.{e}"] = predicted / (run_ms[e] * 1e-3)
    return out
