"""The network-spanning engine: ranks run in worker daemons over TCP.

:class:`SocketEngine` is the fourth execution backend, honouring the
same ``run(System) -> RunResult`` contract as the cooperative,
threaded, and multiprocess engines.  Where the multiprocess engine
puts ranks on its own pool workers and wires them with socketpairs,
this engine ships each rank as a *job* to a long-lived per-host worker
daemon (:mod:`repro.dist.net.daemon`) and wires the channels with TCP
connections — the same :class:`~repro.dist.channels.SocketChannel`
over the same :class:`~repro.dist.net.frames.FrameStream`, and the only
backend whose ranks can live on different machines.

By default the engine spawns ``daemons`` loopback daemons on this box
and reuses them run after run until :meth:`close` — so tests and CI
exercise the entire network path (rendezvous, framing, goodbye/abort
semantics) with no cluster.  Point ``hosts="hostA:9001,hostB:9002"``
(or a list of ``(host, port)`` pairs) at daemons started by hand
(``python -m repro worker-daemon``) to actually span machines; those
daemons are operator-owned and are *not* shut down by :meth:`close`.

Per run, the coordinator:

1. assigns ranks to daemons round-robin
   (:func:`~repro.dist.net.rendezvous.assign_ranks`) under a fresh
   ``job_id`` so back-to-back runs cannot cross-match streams;
2. builds per-rank :class:`~repro.dist.channels.EndpointSpec`
   lists — each naming the *reader's* daemon, so writer daemons dial
   data connections peer-to-peer (values never relay through the
   coordinator);
3. opens one control session per rank — on a connection parked from
   an earlier run when one is idle
   (:class:`~repro.dist.net.rendezvous.StreamPool`), so a warm run
   dials nothing — and sends the job (the body
   travels by value as its once-per-System image from
   :mod:`repro.dist.closures`, the store's *variables* as raw-buffer
   :mod:`repro.dist.wire` frames, its *constants* as a token the
   daemon either holds already or asks about once —
   :func:`constant_sets`; shared memory cannot span hosts, so there is
   no segment plan), and hands the connections to the same
   :func:`~repro.dist.engine.collect_results` collection loop the
   multiprocess engine uses, with proxies standing in for the remote
   processes — a rank runs as soon as its daemon has built it, with no
   start barrier.  After a run whose ranks all reported, the
   connections are parked again; after a failed one they close;
4. a daemon that dies mid-run drops its control streams without the
   clean-close goodbye — surfaced by the collection loop as a worker
   crash, hence :class:`~repro.errors.ProcessFailedError`, within the
   crash-grace window rather than a hang.

Determinacy is engine-independent (Theorem 1): TCP neither reorders a
stream nor bounds the channel (what the kernel will not take at once
parks in the :class:`~repro.dist.net.feeder.SendFeeder` queue, never
blocking the writer), so the socket engine's results are
bitwise-identical to every other backend's — which the equivalence
tests assert.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from typing import Any

from repro.dist import closures, wire
from repro.dist.channels import EndpointSpec
from repro.dist.engine import Collected, collect_results
from repro.dist.net import rendezvous
from repro.errors import RendezvousError
from repro.runtime.system import RunResult, System
from repro.util import is_constant

__all__ = [
    "SocketEngine",
    "build_net_endpoints",
    "constant_sets",
    "fresh_job_id",
    "run_assigned",
    "spawn_loopback_daemons",
    "stop_loopback_daemons",
    "LOOPBACK_DAEMONS",
]

#: Loopback daemons a :class:`SocketEngine` without ``hosts`` spawns.
LOOPBACK_DAEMONS = 2


class _RemoteRank:
    """Process-shaped proxy for a rank living in a (possibly remote)
    worker daemon.

    :func:`~repro.dist.engine.collect_results` watches process
    sentinels and, failing that, result-connection EOFs.  A remote rank
    has no local fd to watch, so the proxy reports ``sentinel=None``
    (skip sentinel multiplexing) and ``is_alive() == False`` (an EOF on
    the control connection *is* the death notice — there is nothing
    local left to wait for), and join/terminate are no-ops.
    """

    sentinel = None
    exitcode: int | None = None

    def __init__(self, rank: int, daemon_addr: rendezvous.Address):
        self.rank = rank
        self.daemon_addr = daemon_addr

    def join(self, timeout: float | None = None) -> None:
        pass

    def is_alive(self) -> bool:
        return False

    def terminate(self) -> None:
        pass


def build_net_endpoints(
    system: System, assign: list[rendezvous.Address], job_id: str
) -> tuple[list, list]:
    """Per-rank writer/reader :class:`EndpointSpec` lists.

    Every spec carries the *reader's* daemon address as ``peer``: the
    writer's daemon dials it, the reader's daemon claims the accepted
    stream from its broker — including the degenerate same-daemon case
    (self-channels, or both ranks assigned to one daemon), which simply
    rides loopback.
    """
    nprocs = system.nprocs
    w_specs: list[list[EndpointSpec]] = [[] for _ in range(nprocs)]
    r_specs: list[list[EndpointSpec]] = [[] for _ in range(nprocs)]
    for spec in system.channel_specs:
        peer = assign[spec.reader]
        for role, rank in (("w", spec.writer), ("r", spec.reader)):
            target = w_specs if role == "w" else r_specs
            target[rank].append(
                EndpointSpec(
                    spec.name,
                    spec.writer,
                    spec.reader,
                    role,
                    job_id=job_id,
                    peer=peer,
                )
            )
    return w_specs, r_specs


_job_seq = 0
_job_seq_lock = threading.Lock()


def fresh_job_id(tag: str = "") -> str:
    """A process-unique job id.  Every dispatch of a system — including
    a retry of the *same* submitted job after a daemon death — gets a
    fresh one, so a dead attempt's late channel dials can never
    cross-match the replacement's rendezvous."""
    global _job_seq
    with _job_seq_lock:
        _job_seq += 1
        seq = _job_seq
    suffix = f"-{tag}" if tag else ""
    return f"{os.getpid():x}-{seq}{suffix}-{os.urandom(4).hex()}"


#: ``System`` -> ``[(token, {key: constant}), ...]`` by rank: the cache
#: shape of :func:`repro.dist.closures.body_payloads`.  Weak on the
#: system, strong on the arrays, so a token lives exactly as long as the
#: program it belongs to and an ``is`` below compares live objects.
_constant_sets: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_constant_sets_lock = threading.Lock()  # a fleet dispatches on many threads


def constant_sets(system: System) -> list[tuple[bytes | None, dict[str, Any]]]:
    """Each rank's constants (:func:`repro.util.is_constant`) and the
    token a daemon keeps them under, minted once per ``System``.

    A token says "the same arrays as last time", decided by identity:
    an entry is revalidated key by key (``store[k] is cached[k]``), so
    rebinding a constant in a :class:`~repro.runtime.process
    .ProcessSpec`'s store mints a new token for that rank, and nothing
    ever reads — let alone hashes — the bytes.  A rank without
    constants has token ``None``.  Which daemon holds which token is
    not recorded here: a daemon that lacks one asks
    (:func:`run_assigned`).

    Lookup, check, mint and store are one critical section: two threads
    dispatching the first runs of one system must not each mint a token
    for the same constants, or a daemon would hold them twice.  The
    section compares identities only and reads no array bytes.
    """
    with _constant_sets_lock:
        cached = _constant_sets.get(system, ())
        fresh = []
        for rank, spec in enumerate(system.processes):
            constants = {
                k: v for k, v in spec.store.items() if is_constant(v)
            }
            held = cached[rank][1] if rank < len(cached) else None
            if held is not None and _same_objects(held, constants):
                fresh.append(cached[rank])
            else:
                fresh.append(
                    (os.urandom(16) if constants else None, constants)
                )
        _constant_sets[system] = fresh
    return fresh


def _same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def spawn_loopback_daemons(
    n: int, handshake_timeout: float = 30.0
) -> tuple[list[rendezvous.Address], list[Any]]:
    """Spawn ``n`` loopback worker-daemon subprocesses.

    Returns ``(addrs, procs)``; the caller owns the processes and
    should retire them with :func:`stop_loopback_daemons`.  A daemon
    that fails to report its bound address within ``handshake_timeout``
    aborts the whole batch (already-started daemons are stopped) with
    :class:`~repro.errors.RendezvousError`.
    """
    from repro.dist.net.daemon import daemon_process_main

    ctx = multiprocessing.get_context()
    addrs: list[rendezvous.Address] = []
    procs: list[Any] = []
    for _ in range(n):
        recv_end, send_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=daemon_process_main,
            name="repro-daemon",
            args=("127.0.0.1", 0, send_end),
            daemon=True,
        )
        proc.start()
        send_end.close()
        procs.append(proc)
        if not recv_end.poll(handshake_timeout):
            recv_end.close()
            stop_loopback_daemons(addrs, procs)
            raise RendezvousError(
                "a loopback worker daemon failed to report its "
                f"address within {handshake_timeout:.1f}s"
            )
        addrs.append(tuple(recv_end.recv()))
        recv_end.close()
    return addrs, procs


def stop_loopback_daemons(
    addrs: list[rendezvous.Address], procs: list[Any]
) -> None:
    """Shut down loopback daemons: polite shutdown hello first (which
    drains in-flight ranks daemon-side), then join, then terminate
    stragglers.  Already-dead processes are fine."""
    for addr in addrs:
        rendezvous.request_shutdown(addr)
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)


def run_assigned(
    system: System,
    assign: list[rendezvous.Address],
    job_id: str,
    *,
    handshake_timeout: float,
    recv_timeout: float | None = None,
    observe: bool = False,
    crash_grace: float = 5.0,
    trace: bool = False,
    engine_name: str = "socket",
    bodies: list | None = None,
    timing_sink: dict | None = None,
    streams: rendezvous.StreamPool | None = None,
) -> RunResult:
    """Dispatch one system onto an explicit rank→daemon assignment and
    collect the result — the whole coordinator side of a networked run,
    shared by :class:`SocketEngine` (round-robin assignment) and the
    fleet scheduler (policy-driven placement with retry).

    ``bodies`` accepts ready ``("image", digest, bytes)`` payloads per
    rank; by default they are the system's once-pickled images
    (:func:`repro.dist.closures.body_payloads`), which a daemon keeps
    resident by digest.  Each rank's *variables* travel as a plain dict
    inside the job frame, so their arrays ride
    :func:`repro.dist.wire.send`'s raw-buffer frames instead of being
    pickled (and then pickled again inside the job header).  Its
    *constants* do not travel: the frame names their token
    (:func:`constant_sets`), and only a daemon that answers ``("need",
    rank)`` — it never held the token, evicted it, was restarted, or is
    a retry's new placement — is sent the arrays, by the collection
    loop.  Nobody keeps a list of what was sent where, so there is
    nothing to go stale; a daemon that holds the token adds no frame.
    Nor do constants come back: a rank's final store is this side's own
    constant arrays (``result.stores[r][k] is
    system.processes[r].store[k]``, as on a pool) under whatever the
    rank reported — its variables, and any constant key it rebound.

    ``timing_sink``, when given, receives
    :meth:`~repro.dist.engine.Collected.timing` plus the bytes this
    run's control streams carried (``control_bytes_out`` /
    ``control_bytes_in``: hellos, job frames, constants, ready notices
    and reports — everything but the peer-to-peer channels), even when
    the run fails.  ``streams`` is the caller's pool of control
    connections: each rank's session opens on an idle one when it can,
    and a run whose every rank reported parks them there again (a
    failed run closes its own).  Failures — body exceptions, rendezvous
    failures, or a daemon dying mid-run (control-stream EOF without the
    goodbye) — raise :class:`~repro.errors.ProcessFailedError` for the
    rank to blame (:meth:`~repro.dist.engine.Collected.blamed_rank`).
    """
    t_start = time.perf_counter()
    nprocs = system.nprocs
    w_specs, r_specs = build_net_endpoints(system, assign, job_id)
    if bodies is None:
        bodies = closures.body_payloads(system)
    sets = constant_sets(system)

    procs: list[_RemoteRank] = []
    parent_conns: dict[Any, int] = {}
    collected: Collected | None = None
    try:
        for p in system.processes:
            rank = p.rank
            token, constants = sets[rank]
            stream = rendezvous.dial_control(
                assign[rank], handshake_timeout, streams
            )
            parent_conns[stream] = rank
            procs.append(_RemoteRank(rank, assign[rank]))
            wire.send(
                stream,
                (
                    "job",
                    {
                        "job_id": job_id,
                        "rank": rank,
                        "name": p.name,
                        "nprocs": nprocs,
                        "body": bodies[rank],
                        "variables": {
                            key: value
                            for key, value in p.store.items()
                            if key not in constants
                        },
                        "constants": token,
                        "w_specs": w_specs[rank],
                        "r_specs": r_specs[rank],
                        "recv_timeout": recv_timeout,
                        "observe": observe,
                        "handshake_timeout": handshake_timeout,
                        "trace": trace,
                    },
                ),
            )

        collected = collect_results(
            system,
            procs,
            parent_conns,
            crash_grace,
            needs=[("constants", token, held) for token, held in sets],
        )
    finally:
        control_out = sum(stream.bytes_sent for stream in parent_conns)
        control_in = sum(stream.bytes_received for stream in parent_conns)
        reported = collected is not None and not collected.errors
        for stream in parent_conns:
            if reported:
                stream.end()
            else:
                stream.close()
        if timing_sink is not None:
            timing_sink.update((collected or Collected()).timing(t_start))
            timing_sink["control_bytes_out"] = control_out
            timing_sink["control_bytes_in"] = control_in

    # This side's own constants under what each rank reported.  A
    # failed rank reports nothing — fall back to its initial store.
    stores = [
        {**sets[p.rank][1], **collected.overrides.get(p.rank, p.store)}
        for p in system.processes
    ]
    result = collected.finish(
        system, stores, engine_name, observe, trace
    )
    if result.report is not None:
        result.report.metrics["wire/net_control_bytes"] = (
            control_out + control_in
        )
    return result


class SocketEngine:
    """Run a :class:`~repro.runtime.system.System` across worker daemons.

    Parameters
    ----------
    trace:
        Lamport stamps on every message; the per-rank event logs
        (:mod:`repro.runtime.trace`) are merged by clock into the
        result's :class:`~repro.runtime.trace.Trace`, which
        :mod:`repro.theory` reads like any other.  Stamps cross hosts in
        the wire header of the value they belong to
        (:mod:`repro.dist.wire`), so even a fleet-spanning run is traced
        end-to-end; pure refinement — final field state is bitwise
        identical on/off.
    observe:
        Truthy runs a per-rank observer in every daemon and merges the
        payloads into the result's ``report``; like the multiprocess
        engine, only the boolean form is accepted.
    hosts:
        Externally started daemons: ``"hostA:9001,hostB:9002"`` or a
        list of ``(host, port)`` pairs.  These are operator-owned;
        :meth:`close` leaves them running.  Without ``hosts`` the
        engine spawns :data:`LOOPBACK_DAEMONS` loopback daemons, so
        even a single-box run crosses a real socket between two daemon
        processes.  They live from the first run to :meth:`close`, the
        end of a ``with`` block or the engine's collection.
    handshake_timeout:
        Upper bound, seconds, on every rendezvous step: control dials,
        channel dials (with exponential-backoff retry), and broker
        claims.  Exceeding it raises
        :class:`~repro.errors.RendezvousTimeoutError` — never a hang.
    crash_grace:
        After the first rank failure, how long to wait for the rest to
        unwind via the EOF/abort cascade before giving up on them.

    Attributes
    ----------
    last_timing:
        ``{"startup_s", "run_s", "total_s"}`` for the most recent run,
        split at the last rank's ready notice exactly like the
        multiprocess engine — so engine-comparison benches read
        transport cost out of ``run_s`` directly — plus
        ``control_bytes_out`` / ``control_bytes_in``, the bytes its
        control streams carried (:func:`run_assigned`).
    """

    name = "socket"

    def __init__(
        self,
        trace: bool = False,
        observe=False,
        hosts=None,
        handshake_timeout: float = 30.0,
        crash_grace: float = 5.0,
    ):
        self._trace = bool(trace)
        self._observe = bool(observe)
        if isinstance(hosts, str):
            hosts = rendezvous.parse_hosts(hosts)
        #: Operator-owned hosts from the start, else spawned on first use.
        self._addrs: list[rendezvous.Address] | None = (
            [tuple(h) for h in hosts] if hosts else None
        )
        self._handshake_timeout = handshake_timeout
        self._crash_grace = crash_grace
        self._local_procs: list[Any] = []
        #: Stops the loopback daemons this engine spawned; set with them.
        self._release = None
        #: Control connections between runs; closed with the engine.
        self._streams = rendezvous.StreamPool()
        weakref.finalize(self, self._streams.close)
        self.last_timing: dict[str, float] = {}

    # -- daemon plumbing -----------------------------------------------------

    @property
    def daemon_addresses(self) -> list[rendezvous.Address]:
        """The daemons this engine dispatches to (spawning loopback
        daemons on first use when none were configured)."""
        return list(self._ensure_daemons())

    def _ensure_daemons(self) -> list[rendezvous.Address]:
        if self._addrs is None:
            self._addrs, self._local_procs = spawn_loopback_daemons(
                LOOPBACK_DAEMONS, self._handshake_timeout
            )
            self._release = weakref.finalize(
                self, stop_loopback_daemons, self._addrs, self._local_procs
            )
        return self._addrs

    def close(self) -> None:
        """Close the parked control connections and shut down
        engine-owned loopback daemons.  Idempotent; hosts passed in by
        the operator are left running."""
        self._streams.close()
        if self._release is not None:
            self._release()
            self._release = self._addrs = None
            self._local_procs = []

    def __enter__(self) -> "SocketEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run ----------------------------------------------------------------

    def run(self, system: System) -> RunResult:
        addrs = self._ensure_daemons()
        assign = rendezvous.assign_ranks(system.nprocs, addrs)
        timing: dict[str, float] = {}
        try:
            return run_assigned(
                system,
                assign,
                fresh_job_id(),
                handshake_timeout=self._handshake_timeout,
                observe=self._observe,
                crash_grace=self._crash_grace,
                trace=self._trace,
                engine_name=self.name,
                timing_sink=timing,
                streams=self._streams,
            )
        finally:
            self.last_timing = timing
