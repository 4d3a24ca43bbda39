"""Every option has a caller: the public constructors' keywords against
one checked table.

Each keyword of each callable in :data:`CALLERS` has one row
``(kind, path, needle)``: ``needle`` must appear in the file at
``path``, which is where a program that is not a test sets it.

* ``cli`` — ``src/repro/cli.py`` or the daemon's ``run_daemon_cli``.
  The experiment commands hand their engine keywords to
  ``make_engine(args.engine, ...)``, so a keyword the CLI passes there
  reaches every ``--engine`` choice.
* ``suite`` — ``benchmarks/suite/harness.py`` or ``registry.py``.
* ``example`` — a file under ``examples/``.
* ``src`` — another module of the library passes it.
* ``seam`` — a test needs it, and it is a timeout, interval or retry
  count (:data:`SEAMS`) that the test sets so that it finishes in
  seconds, or so that a timing assertion can tell a prompt failure from
  one that waited the default out.
* ``deferred`` — exactly one row, whose needle is DESIGN.md's sentence
  naming the deferral and what replaces the keyword.

:mod:`tests.integration.inventory` checks the rows.
"""

import importlib
import inspect

import pytest

from tests.integration import inventory

#: The keywords a ``seam`` row may name.
SEAMS = frozenset(
    {
        "heartbeat_interval",
        "miss_threshold",
        "ping_timeout",
        "max_attempts",
        "crash_grace",
        "handshake_timeout",
        "recv_timeout",
    }
)

#: Where each kind's file may live.
KIND_PATHS = {
    "cli": ("src/repro/cli.py", "src/repro/dist/net/daemon.py"),
    "suite": ("benchmarks/suite/harness.py", "benchmarks/suite/registry.py"),
    "example": ("examples/",),
    "src": ("src/",),
    "seam": ("tests/",),
    "deferred": ("DESIGN.md",),
}

CLI = "src/repro/cli.py"
DAEMON = "src/repro/dist/net/daemon.py"
HARNESS = "benchmarks/suite/harness.py"
REGISTRY = "benchmarks/suite/registry.py"
SCATTERING = "examples/fdtd_scattering.py"
FLEET_TESTS = "tests/dist/test_fleet.py"
ENGINE_TESTS = "tests/dist/test_engine.py"
NET_TESTS = "tests/dist/test_net.py"

# The CLI's engine keywords: ``stats`` observes, ``trace`` traces.
OBSERVE = ("cli", CLI, "_build_run(args, _STATS_GRIDS, observe=True)")
TRACE = ("cli", CLI, "observe=args.chrome is not None, trace=True")
FLEET = "daemons=2, capacity=3, max_inflight=2, elastic=False"
BUILD_SCATTERING = "build_parallel_fdtd(config, PSHAPE"

#: ``"module:qualname"`` -> ``{keyword: (kind, path, needle)}``.
CALLERS = {
    "repro.runtime:ThreadedEngine": {
        "trace": ("cli", CLI, "ThreadedEngine(trace=True)"),
        "observe": OBSERVE,
    },
    "repro.runtime:CooperativeEngine": {
        "policy": ("cli", CLI, "CooperativeEngine(RoundRobinPolicy(), "),
        "trace": ("cli", CLI, "CooperativeEngine(SendsFirstPolicy(), trace=True)"),
        "max_actions": (
            "src",
            "src/repro/theory/determinacy.py",
            "CooperativeEngine(policy, trace=True, max_actions=max_actions)",
        ),
        "observe": OBSERVE,
    },
    "repro.dist.engine:MultiprocessEngine": {
        "trace": TRACE,
        "recv_timeout": (
            "seam",
            ENGINE_TESTS,
            'MultiprocessEngine(start_method="fork", recv_timeout=0.5)',
        ),
        "observe": OBSERVE,
        "start_method": ("suite", HARNESS, '"multiprocess+pool", start_method="fork"'),
        "crash_grace": (
            "seam", "tests/dist/test_pool.py", 'start_method="fork", crash_grace=2.0'
        ),
    },
    "repro.dist.net.engine:SocketEngine": {
        "trace": TRACE,
        "observe": OBSERVE,
        "hosts": ("cli", CLI, 'engine_opts["hosts"] = args.hosts'),
        "handshake_timeout": (
            "seam", NET_TESTS, 'make_engine("socket", handshake_timeout=10.0)'
        ),
        "crash_grace": (
            "seam", ENGINE_TESTS, "make_engine(name, crash_grace=30.0, **kwargs)"
        ),
    },
    "repro.dist.pool:WorkerPool": {
        "start_method": (
            "src", "src/repro/dist/engine.py", "WorkerPool(self._start_method)"
        ),
    },
    "repro.dist.net.daemon:WorkerDaemon": {
        "host": ("cli", DAEMON, "args.host, args.port, handshake_timeout="),
        "port": ("cli", DAEMON, "args.host, args.port, handshake_timeout="),
        "handshake_timeout": (
            "cli", DAEMON, "handshake_timeout=args.handshake_timeout"
        ),
    },
    "repro.dist.net.daemon:WorkerDaemon.stop": {},
    "repro.dist.serving:JobServerCore": {
        "max_inflight": (
            "src",
            "src/repro/dist/serve.py",
            "max_inflight=pool_size if max_inflight is None else max_inflight",
        ),
    },
    "repro.dist.serve:JobServer": {
        "pool_size": ("suite", HARNESS, "pool_size=6, max_inflight=2"),
        "max_inflight": ("suite", HARNESS, "pool_size=6, max_inflight=2"),
        "start_method": ("suite", HARNESS, 'max_inflight=2, start_method="fork"'),
    },
    "repro.dist.fleet:FleetScheduler": {
        "daemons": ("suite", HARNESS, FLEET),
        "capacity": ("suite", HARNESS, FLEET),
        "max_inflight": ("suite", HARNESS, FLEET),
        "elastic": ("suite", HARNESS, FLEET),
        "max_attempts": ("seam", FLEET_TESTS, "max_attempts=2"),
        "heartbeat_interval": ("seam", FLEET_TESTS, "heartbeat_interval=0.2"),
        "miss_threshold": ("seam", FLEET_TESTS, "miss_threshold=2"),
        "ping_timeout": ("seam", FLEET_TESTS, "ping_timeout=0.5"),
        "crash_grace": ("seam", FLEET_TESTS, "crash_grace=2.0"),
        "handshake_timeout": ("seam", FLEET_TESTS, "handshake_timeout=5.0"),
    },
    "repro.apps.fdtd:build_parallel_fdtd": {
        "config": ("example", SCATTERING, BUILD_SCATTERING),
        "pshape": ("example", SCATTERING, BUILD_SCATTERING),
        "version": ("example", SCATTERING, 'PSHAPE, version="C", ntff=ntff)'),
        "ntff": ("example", SCATTERING, 'PSHAPE, version="C", ntff=ntff)'),
        "compensated_farfield": (
            "deferred",
            "DESIGN.md",
            "`build_parallel_fdtd(compensated_farfield=True)` is deferred",
        ),
        "batch_exchanges": ("suite", REGISTRY, 'build={"batch_exchanges": True}'),
        "overlap": ("suite", REGISTRY, 'build={"overlap": True}'),
    },
    "repro.apps.fdtd:VersionA": {
        "config": ("suite", HARNESS, "VersionA(kind.config)"),
    },
    "repro.apps.fdtd:VersionC": {
        "config": ("suite", HARNESS, "VersionC(kind.config, kind.ntff)"),
        "ntff": ("suite", HARNESS, "VersionC(kind.config, kind.ntff)"),
    },
}

ROWS = [(t, k, row) for t, rows in CALLERS.items() for k, row in rows.items()]


def keywords(target: str) -> set[str]:
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return set(inspect.signature(obj).parameters) - {"self"}


@pytest.mark.parametrize("target", sorted(CALLERS))
def test_every_keyword_has_a_row(target):
    inventory.check_subset(
        keywords(target),
        CALLERS[target],
        f"are keywords of {target} but no row names a caller; give each "
        "a non-test caller in this table, or delete it",
    )


@pytest.mark.parametrize("target", sorted(CALLERS))
def test_every_row_names_a_keyword(target):
    inventory.check_subset(
        CALLERS[target], keywords(target), f"are not keywords of {target}"
    )


@pytest.mark.parametrize(
    "target, keyword, row", ROWS, ids=[f"{t.partition(':')[2]}.{k}" for t, k, _ in ROWS]
)
def test_every_needle_is_in_its_file(target, keyword, row):
    inventory.check_row(KIND_PATHS, f"{target}({keyword}=)", row)
    if row[0] == "seam":
        assert keyword in SEAMS, f"{keyword} is not a timeout, interval or retry count"


def test_one_deferred_row():
    deferred = [(t, k) for t, k, (kind, _, _) in ROWS if kind == "deferred"]
    assert deferred == [("repro.apps.fdtd:build_parallel_fdtd", "compensated_farfield")]
