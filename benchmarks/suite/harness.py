"""Boot, run, verify, tear down: the machinery both passes share.

Everything here calls the layers' public functions from outside and
times the calls; nothing inside ``src/`` is instrumented.  Because
processes over SRSW channels are determinate (Theorem 1), every timed
execution is checked bitwise against the sequential code — outside the
timed region — and a mismatch, an exception, a timeout or a leak is a
*failed operation*, not a slow one.
"""

from __future__ import annotations

import multiprocessing
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.apps.fdtd import COMPONENTS, VersionA, VersionC, build_parallel_fdtd
from repro.dist.fleet import FleetScheduler
from repro.dist.serve import JobServer
from repro.dist.shm import live_segment_names
from repro.runtime import make_engine
from repro.util import bitwise_equal_arrays

import reaper
import registry
from spans import Tracer

#: Upper bound on one engine run or one batch; normal ones take < 2 s.
OP_TIMEOUT_S = 45.0

#: Far-field potentials: parallel vs sequential, relative to the largest
#: sequential entry (the paper's reordered-sum result).
FARFIELD_RTOL = 1e-9


class OpTimeout(Exception):
    """An operation exceeded :data:`OP_TIMEOUT_S`."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def deadline(seconds: float):
    """Raise :class:`OpTimeout` in the main thread after ``seconds``.

    A signal timer costs nothing on the timed path, unlike running the
    operation in a helper thread and waiting on it.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Ledger:
    """Operations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.reasons) < 20:
            self.reasons.append(reason)


# ---------------------------------------------------------------------------
# Programs and their references
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """One job kind, built: both program versions plus the reference."""

    kind: registry.JobKind
    par: object  # ParallelFDTD
    system: object  # the message-passing transform, reused by every run
    seq: object  # VersionA | VersionC driver
    ref_fields: dict[str, np.ndarray]
    ref_pot_seq: tuple[np.ndarray, np.ndarray] | None = None
    ref_pot_sim: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def steps(self) -> int:
        return self.kind.config.steps

    @property
    def cells(self) -> int:
        return self.kind.config.grid.ncells


def build_program(kind: registry.JobKind):
    return build_parallel_fdtd(
        kind.config,
        registry.PSHAPE,
        version=kind.version,
        ntff=kind.ntff,
        **kind.build,
    )


def prepare(kind: registry.JobKind, tracer: Tracer) -> Prepared:
    with tracer.span("build"):
        par = build_program(kind)
    with tracer.span("to_parallel"):
        system = par.to_parallel()
    with tracer.span("reference"):
        if kind.version == "C":
            seq = VersionC(kind.config, kind.ntff)
        else:
            seq = VersionA(kind.config)
        # Every run() returns freshly allocated arrays, so the first
        # result can serve as the reference without copying.
        result = seq.run()
        prep = Prepared(kind, par, system, seq, result.fields.components())
        if kind.version == "C":
            prep.ref_pot_seq = (
                result.vector_potential_A,
                result.vector_potential_F,
            )
            prep.ref_pot_sim = par.host_potentials(par.run_simulated())
    return prep


def _flip_one_bit(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.view(np.uint8).reshape(-1)[0] ^= 1
    return out


def verify_parallel(prep: Prepared, result, corrupt: bool = False) -> str | None:
    """``None`` when a parallel run's host state matches the reference,
    else what differs.  ``corrupt`` is the self-test hook: it flips one
    bit of one collected field first, which must be caught."""
    fields = prep.par.host_fields(result.stores)
    if corrupt:
        fields["ez"] = _flip_one_bit(fields["ez"])
    for comp in COMPONENTS:
        if not bitwise_equal_arrays(fields[comp], prep.ref_fields[comp]):
            return f"{comp} not bitwise equal to the sequential field"
    if prep.ref_pot_sim is not None:
        got = prep.par.host_potentials(result.stores)
        for name, g, sim, seq in zip("AF", got, prep.ref_pot_sim, prep.ref_pot_seq):
            if not bitwise_equal_arrays(g, sim):
                return f"potential {name} not bitwise equal to run_simulated()"
            scale = float(np.max(np.abs(seq)))
            if float(np.max(np.abs(g - seq))) > FARFIELD_RTOL * scale:
                return f"potential {name} beyond 1e-9 of the sequential one"
    return None


def verify_sequential(prep: Prepared, result) -> str | None:
    for comp, arr in result.fields.components().items():
        if not bitwise_equal_arrays(arr, prep.ref_fields[comp]):
            return f"sequential rerun changed {comp}"
    return None


# ---------------------------------------------------------------------------
# Engines and front-ends
# ---------------------------------------------------------------------------


class Stack:
    """The engines and serving front-ends one workload runs on.

    Boot order matters: everything that forks (pool workers, loopback
    daemons) is created while this process is still single-threaded;
    the fleet's heartbeat thread starts last.
    """

    def __init__(self, observe: bool = False, front_ends: bool = True):
        self.observe = observe
        self.with_front_ends = front_ends
        self.engines: dict[str, object] = {}
        self.jobserver = None
        self.fleet = None

    def boot(self, warm: Prepared, tracer: Tracer, ledger: Ledger) -> None:
        """Create every engine and run ``warm`` once on each path."""
        obs = {"observe": True} if self.observe else {}
        with tracer.span("boot.mp_pool"):
            self.engines["mp_pool"] = make_engine(
                "multiprocess+pool", start_method="fork", **obs
            )
            run_engine(self, "mp_pool", warm, ledger)  # forks the pool
        if self.with_front_ends:
            with tracer.span("boot.jobserver"):
                self.jobserver = JobServer(
                    pool_size=6, max_inflight=2, start_method="fork"
                )
        with tracer.span("boot.socket"):
            self.engines["socket"] = make_engine("socket", **obs)
            self.engines["socket"].daemon_addresses  # spawns the daemons
        if self.with_front_ends:
            with tracer.span("boot.fleet"):
                self.fleet = FleetScheduler(
                    daemons=2, capacity=3, max_inflight=2, elastic=False
                )
        self.engines["threaded"] = make_engine("threaded", **obs)
        with tracer.span("warmup"):
            run_engine(self, "sequential", warm, ledger)
            for path in ("threaded", "socket"):
                run_engine(self, path, warm, ledger)
            if self.with_front_ends:
                for front in ("jobserver", "fleet"):
                    run_batch(self, front, [warm], [0], ledger)

    def close(self) -> None:
        for closer in (
            self.fleet,
            self.jobserver,
            *self.engines.values(),
        ):
            close = getattr(closer, "close", None)
            if close is not None:
                close()
        self.engines.clear()
        self.fleet = self.jobserver = None


def run_engine(
    stack: Stack,
    path: str,
    prep: Prepared,
    ledger: Ledger,
    corrupt: bool = False,
    keep: list | None = None,
) -> float | None:
    """One execution of ``prep`` on ``path``: seconds, or ``None`` when
    it failed.  Verification happens after the clock stops."""
    sequential = path == "sequential"
    run = prep.seq.run if sequential else partial(
        stack.engines[path].run, prep.system
    )
    try:
        with deadline(OP_TIMEOUT_S):
            t0 = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - t0
    except OpTimeout:
        ledger.fail(f"{path}: timed out after {OP_TIMEOUT_S:.0f}s")
        raise
    except Exception as exc:  # noqa: BLE001 - any failure is a failed op
        ledger.fail(f"{path}: {type(exc).__name__}: {exc}")
        return None
    if sequential:
        problem = verify_sequential(prep, result)
    else:
        problem = verify_parallel(prep, result, corrupt)
    if problem:
        ledger.fail(f"{path}: {problem}")
        return None
    ledger.ok()
    if keep is not None:
        keep.append(result)
    return elapsed


def run_batch(
    stack: Stack,
    front: str,
    preps: list[Prepared],
    batch: list[int],
    ledger: Ledger,
    keep: list | None = None,
    submit_s: list | None = None,
) -> float | None:
    """Push one batch through a front-end, closed loop; seconds for the
    whole batch, or ``None`` if any job failed."""
    results: list = [None] * len(batch)
    errors: list[str] = []
    try:
        with deadline(OP_TIMEOUT_S):
            t0 = time.perf_counter()
            if front == "engine_serial":
                engine = stack.engines["mp_pool"]
                for i, k in enumerate(batch):
                    try:
                        results[i] = engine.run(preps[k].system)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(f"{type(exc).__name__}: {exc}")
            else:
                server = stack.jobserver if front == "jobserver" else stack.fleet
                # submit() blocks at max_inflight, so one submitting
                # thread keeps exactly that many jobs in flight.
                futures = []
                for k in batch:
                    s0 = time.perf_counter()
                    futures.append(server.submit(preps[k].system))
                    if submit_s is not None:
                        submit_s.append(time.perf_counter() - s0)
                for i, fut in enumerate(futures):
                    try:
                        results[i] = fut.result()
                    except Exception as exc:  # noqa: BLE001
                        errors.append(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
    except OpTimeout:
        ledger.fail(f"{front}: batch timed out", len(batch))
        raise
    for i, k in enumerate(batch):
        if results[i] is None:
            continue
        problem = verify_parallel(preps[k], results[i])
        if problem:
            errors.append(problem)
            results[i] = None
    bad = sum(r is None for r in results)
    ledger.ok(len(batch) - bad)
    if bad:
        ledger.fail(f"{front}: {errors[0]}", bad)
        return None
    if keep is not None:
        keep.extend(results)
    return elapsed


# ---------------------------------------------------------------------------
# Leaks, memory, host noise, statistics
# ---------------------------------------------------------------------------


def surviving_children() -> list[str]:
    """Child processes still alive, the multiprocessing resource tracker
    (which ``run.py`` stops last, through ``reaper.reap_all``) excepted."""
    multiprocessing.active_children()  # reaps finished ones
    tracker = reaper.tracker_pid()
    return [
        f"{pid}:{cmdline}"
        for pid, cmdline in reaper.children().items()
        if pid != tracker
    ]


def check_leaks(segments_before: frozenset, ledger: Ledger) -> None:
    leaked = live_segment_names() - segments_before
    if leaked:
        ledger.fail(f"shm segments leaked: {sorted(leaked)[:3]}")
    else:
        ledger.ok()
    children = surviving_children()
    if children:
        ledger.fail(f"child processes survived: {children[:3]}")
    else:
        ledger.ok()


def peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class HostCalibration:
    """A fixed mix of interpreter and NumPy work that tells how fast the
    host is *right now*, independent of the code under test.

    The box is a shared VM: for a minute at a time a neighbour slows
    everything — this mix by 30-70 %, the engines by 25-35 % — and a
    15 s run usually sits wholly inside one such phase.  The mix is
    timed around every round of measurements and each repetition is
    divided by the slowdown the mix saw (its time over
    :data:`registry.CALIB_REF_MS`), so the gated value is wall time at
    the reference host speed; the raw wall times are recorded beside it.
    """

    def __init__(self) -> None:
        self._small = np.full(1 << 15, 1.5)  # 256 KB: cache-resident
        self._small_out = np.empty_like(self._small)
        self._big = np.full(1 << 21, 1.5)  # 16 MB: streams from memory
        self._big_out = np.empty_like(self._big)
        self.parts_ms()  # first touch of the arrays is not host speed

    def parts_ms(self) -> tuple[float, float, float]:
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        t1 = time.perf_counter()
        for _ in range(200):
            np.multiply(self._small, 3.0, out=self._small_out)
        t2 = time.perf_counter()
        for _ in range(3):
            np.multiply(self._big, 3.0, out=self._big_out)
        t3 = time.perf_counter()
        return ((t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3)

    def slowdown(self) -> float:
        """Mean over the three parts of time / reference time.  The mix
        runs twice and the second reading counts: the first one after
        other work re-warms the caches and reads 1.5x high."""
        self.parts_ms()
        parts = self.parts_ms()
        return sum(
            p / ref for p, ref in zip(parts, registry.CALIB_REF_MS)
        ) / len(parts)


def summarize(adjusted: list[float], raw: list[float], better: str) -> dict:
    """One metric's repetitions.  The gated ``value`` is the median of
    the host-adjusted repetitions: the minimum does not repeat here
    (``run_ms.threaded`` has occasional lucky schedules 30 % below the
    rest), and across ten-run sets the median, the lower quartile and
    trimmed means all spread alike."""

    def quartiles(xs):
        if len(xs) < 2:
            return xs[0], xs[0]
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return q1, q3

    q1, q3 = quartiles(adjusted)
    lower = better == "lower"
    return {
        "value": statistics.median(adjusted),
        "raw_value": statistics.median(raw),
        "best": min(adjusted) if lower else max(adjusted),
        "median": statistics.median(adjusted),
        "q1": q1,
        "q3": q3,
        "n": len(adjusted),
        "samples": adjusted,
        "raw_samples": raw,
    }


# ---------------------------------------------------------------------------
# The untraced pass: what the end-to-end metrics are read from
# ---------------------------------------------------------------------------


def measure(
    stack: Stack,
    inputs: registry.Inputs,
    preps: list[Prepared],
    seconds: float,
    ledger: Ledger,
    calib: HostCalibration,
    min_rounds: int,
    corrupt: bool,
) -> tuple[dict[str, list[float]], dict[str, list[float]], list[float]]:
    """Round-robin over every path and front-end until ``seconds`` are
    spent, so a slow phase of the shared host hits all of them alike.
    Returns ``(adjusted, raw, slowdowns)``."""
    ref = preps[inputs.reference]
    names = [f"run_ms.{p}" for p in registry.PATHS] + [
        f"jobs_per_s.{f}" for f in registry.FRONT_ENDS
    ]
    raw: dict[str, list[float]] = {n: [] for n in names}
    adjusted: dict[str, list[float]] = {n: [] for n in names}
    slowdowns = [calib.slowdown()]
    t_end = time.perf_counter() + seconds
    longest = 0.0
    rounds = 0
    while True:
        t_round = time.perf_counter()
        this: dict[str, list[float]] = {n: [] for n in names}
        for path in registry.PATHS:
            for _ in range(inputs.workload.engine_reps):
                s = run_engine(
                    stack, path, ref, ledger,
                    corrupt=corrupt and rounds == 0 and path == "threaded",
                )
                if s is not None:
                    this[f"run_ms.{path}"].append(s * 1e3)
        for front in registry.FRONT_ENDS:
            s = run_batch(stack, front, preps, inputs.batch, ledger)
            if s is not None:
                this[f"jobs_per_s.{front}"].append(len(inputs.batch) / s)
        slowdowns.append(calib.slowdown())
        factor = (slowdowns[-2] + slowdowns[-1]) / 2.0
        for name, values in this.items():
            raw[name] += values
            if name.startswith("run_ms."):
                adjusted[name] += [v / factor for v in values]
            else:
                adjusted[name] += [v * factor for v in values]
        rounds += 1
        longest = max(longest, time.perf_counter() - t_round)
        if rounds >= min_rounds and time.perf_counter() + longest > t_end:
            return adjusted, raw, slowdowns


def untraced_pass(
    inputs: registry.Inputs,
    seconds: float,
    ledger: Ledger,
    t_start: float,
    smoke: bool,
    corrupt: bool,
) -> dict:
    """Every end-to-end metric of one workload, tracing off.

    ``t_start`` is the ``perf_counter`` reading at process start; the
    time from there to here is the imports' share of ``setup_s``.
    """
    tracer = Tracer(inputs.workload.name, enabled=False)
    import_s = time.perf_counter() - t_start
    calib = HostCalibration()
    segments_before = live_segment_names()

    # setup_s: the whole build/reference/boot/warm-up phase, done
    # SETUP_CYCLES times (all but the last torn down again) so that one
    # slow fork or page-cache miss does not decide the reported value.
    cycle_s: list[float] = []
    stack = None
    for _ in range(1 if smoke else registry.SETUP_CYCLES):
        if stack is not None:
            stack.close()
        t0 = time.perf_counter()
        preps = [prepare(kind, tracer) for kind in inputs.kinds]
        stack = Stack()
        try:
            stack.boot(preps[inputs.reference], tracer, ledger)
        except BaseException:
            stack.close()
            raise
        cycle_s.append(time.perf_counter() - t0)
    try:
        t0 = time.perf_counter()
        adjusted, raw, slowdowns = measure(
            stack, inputs, preps, seconds, ledger, calib,
            2 if smoke else 3, corrupt,
        )
        measured_s = time.perf_counter() - t0
    finally:
        stack.close()
    check_leaks(segments_before, ledger)

    better = {m.name: m.better for m in registry.END_TO_END}
    values = {
        name: summarize(adjusted[name], raw[name], better[name])
        for name in adjusted
        if adjusted[name]
    }
    # A calibration taken right after a boot reads the boot's aftermath
    # (it is 1.5-2x the readings around it), so set-up is adjusted by the
    # run's median slowdown instead: host phases outlast a run.
    factor = statistics.median(slowdowns)
    setup_raw = [import_s + c for c in cycle_s]
    values["setup_s"] = summarize(
        [s / factor for s in setup_raw], setup_raw, "lower"
    )
    rss = peak_rss_mb()
    values["peak_rss_mb"] = summarize([rss], [rss], "lower")
    deciles = statistics.quantiles(slowdowns, n=10, method="inclusive")
    return {
        "values": values,
        "rounds": len(slowdowns) - 1,
        "measured_s": measured_s,
        "import_s": import_s,
        "host_slowdown": {
            "median": factor,
            "p10": deciles[0],
            "p90": deciles[-1],
            "per_round": slowdowns,
        },
        # The host changed speed inside the run (single calibrations
        # scatter by 10-15 %, a phase change is 30 % and more): the
        # suite reruns such a workload once.
        "noisy": deciles[-1] / deciles[0] > 1.5,
    }
