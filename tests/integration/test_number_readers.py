"""Every reported number has a reader: metric names and ``stats()`` keys
against one checked table.

The scan walks ``src/repro`` and collects two kinds of reported number:

* **metric names** — every name passed to a registry's ``.counter(`` or
  ``.gauge(`` (an f-string contributes its literal prefix, e.g.
  ``comm/pending/P``; a name passed as a variable is resolved through
  :data:`INDIRECT`), and every name a module writes straight into a
  report's ``metrics`` (``report.metrics["..."] = ...``);
* **stats keys** — every key written by a producer in
  :data:`PRODUCERS`: a dict display's key, ``out["key"] = ...``,
  ``out.update(key=...)``, or an entry of a tuple of field names.

A name is *read* where a program that is not a test
(:func:`tests.integration.inventory.programs`) takes it back outside
every producer: as a quoted key (``d["key"]``, ``d.get("key")``,
``"key" in d``; for a metric prefix, a quoted key that starts with it)
or as an attribute (``x.key``, which is how a
:class:`~repro.runtime.system.ChannelStatsRecord` field is read).

A name with no reader needs exactly one row ``(kind, path, needle)`` in
:data:`ROWS`; ``needle`` must be found in the file at ``path``, and
``kind`` says who reads it:

* ``seam`` — the named test reads it to observe a behaviour that no
  public output shows.
* ``printed`` — a command prints the whole mapping it is in: the
  daemon's ``worker-daemon --stats-interval`` lines, or the metrics
  table of :meth:`~repro.obs.report.RunReport.summary` (``stats e1``).
* ``vocabulary`` — the document at ``path`` defines it.

:mod:`tests.integration.inventory` checks the rows.
"""

import ast

import pytest

from tests.integration import inventory

#: ``(path, qualname)`` of every function or class attribute whose
#: string keys are reported numbers.  A qualname's last part may name
#: an assignment (``self._counters = {...}``) inside the part before.
PRODUCERS = (
    ("src/repro/dist/serving.py", "JobServerCore.stats"),
    ("src/repro/dist/serve.py", "JobServer._stats_extra"),
    ("src/repro/dist/fleet/scheduler.py", "FleetScheduler._stats_extra"),
    ("src/repro/dist/fleet/membership.py", "DaemonState.snapshot"),
    ("src/repro/dist/net/daemon.py", "WorkerDaemon.stats"),
    # ``WorkerDaemon.stats`` starts from a copy of its event counters.
    ("src/repro/dist/net/daemon.py", "WorkerDaemon.__init__._counters"),
    ("src/repro/dist/worker.py", "ResidentImages.stats"),
    ("src/repro/dist/worker.py", "ResidentConstants.stats"),
    # ``ChannelCore.stats`` reports the fields its storage names.
    ("src/repro/runtime/channel.py", "ChannelCore._stat_fields"),
    ("src/repro/dist/channels.py", "SocketChannel._stat_fields"),
    ("src/repro/dist/channels.py", "SocketChannel._writer_stats"),
)

#: ``path -> (path, qualname)``: in that module a metric name passed as
#: a variable is one of the keys of the dict display at the qualname.
INDIRECT = {
    "src/repro/dist/worker.py": (
        "src/repro/dist/channels.py", "SocketChannel.wire_metrics"
    ),
}

#: Where each kind's file may live.
KIND_PATHS = {
    "seam": ("tests/",),
    "printed": ("src/repro/",),
    "vocabulary": ("README.md", "DESIGN.md", "docs/"),
}

DAEMON_LINE = (
    "printed",
    "src/repro/dist/net/daemon.py",
    'out("stats " + json.dumps(daemon.stats(), sort_keys=True))',
)
SUMMARY = (
    "printed",
    "src/repro/obs/report.py",
    "[[k, str(v)] for k, v in sorted(self.metrics.items())]",
)
FLEET_TESTS = "tests/dist/test_fleet.py"
SERVE_TESTS = "tests/dist/test_serve.py"

#: name -> ``(kind, path, needle)``.
ROWS = {
    # Metrics: every observed run's report prints them (a gauge only as
    # its high-water mark, ``comm/pending/P<rank>/hwm``).
    "comm/pending/P": SUMMARY,
    "wire/frames": SUMMARY,
    "wire/bytes": SUMMARY,
    "wire/syscalls": SUMMARY,
    "wire/net_control_bytes": SUMMARY,
    # The servers' stats().
    "jobs_failed": ("seam", SERVE_TESTS, 'assert stats["jobs_failed"] == 1'),
    "inflight_hwm": ("seam", SERVE_TESTS, 'assert stats["inflight_hwm"] > 1'),
    "startup_ms_p50": (
        "seam", "tests/dist/test_warm_dispatch.py", 'assert stats["startup_ms_p50"] > 0'
    ),
    "retries": ("seam", FLEET_TESTS, 'assert sched.stats()["retries"] >= 1'),
    "daemons_alive": ("seam", FLEET_TESTS, 'assert stats["daemons_alive"] == 2'),
    "daemon_deaths": (
        "seam", FLEET_TESTS, 'assert sched.stats()["daemon_deaths"] >= 1'
    ),
    # A daemon's stats() is what its --stats-interval lines print.
    "accepted_conns": DAEMON_LINE,
    "control_conns": DAEMON_LINE,
    "data_conns": DAEMON_LINE,
    "stats_conns": DAEMON_LINE,
    "rendezvous_failures": DAEMON_LINE,
    "shutdown_requests": DAEMON_LINE,
    "refused_conns": DAEMON_LINE,
    "bad_hellos": DAEMON_LINE,
    "draining": DAEMON_LINE,
    "feeder_threads": DAEMON_LINE,
    "images_resident": DAEMON_LINE,
    "image_hits": DAEMON_LINE,
    "image_misses": DAEMON_LINE,
    "constants_resident": DAEMON_LINE,
    "constant_bytes_resident": DAEMON_LINE,
    "constant_hits": DAEMON_LINE,
    "constant_misses": DAEMON_LINE,
    "constant_evictions": DAEMON_LINE,
    "uptime_s": DAEMON_LINE,
}


def _targets(node) -> list[str]:
    """The names an assignment binds (``x`` or ``self.x``)."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        t.id if isinstance(t, ast.Name) else t.attr
        for t in targets
        if isinstance(t, (ast.Name, ast.Attribute))
    ]


def _find(tree: ast.Module, qualname: str) -> ast.AST:
    """The definition or assignment a qualname names."""
    node = tree
    for part in qualname.split("."):
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if child.name == part:
                    break
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                if part in _targets(child):
                    break
        else:
            raise LookupError(f"{qualname}: no {part!r}")
        node = child
    return node


def _string(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _keys_written(node: ast.AST) -> set[str]:
    """The string keys a producer writes (see the module docstring)."""
    keys = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            keys.update(k for k in map(_string, child.keys) if k)
        elif isinstance(child, ast.Subscript) and isinstance(child.ctx, ast.Store):
            keys.add(_string(child.slice))
        elif isinstance(child, ast.Call) and (
            isinstance(child.func, ast.Attribute)
            and child.func.attr == "update"
            or isinstance(child.func, ast.Name)
            and child.func.id == "dict"
        ):
            keys.update(kw.arg for kw in child.keywords if kw.arg)
        elif isinstance(child, (ast.Tuple, ast.List)) and child.elts:
            names = [_string(e) for e in child.elts]
            if all(names):
                keys.update(names)
    keys.discard(None)
    return keys


def _metric_calls(tree: ast.Module):
    """``(call, first argument)`` of every ``.counter(`` / ``.gauge(``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "gauge")
            and node.args
        ):
            yield node, node.args[0]


def _metrics_written(tree: ast.Module):
    """``(node, name)`` of every ``<x>.metrics["name"] = ...``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "metrics"
            and _string(node.slice)
        ):
            yield node, _string(node.slice)


def reported():
    """``(names, spans)``: every reported name -> whether it is a
    prefix, and ``path -> [(first, last line)]`` of every producer."""
    names: dict[str, bool] = {}
    spans: dict[str, list[tuple[int, int]]] = {}

    def produced(path, node):
        spans.setdefault(path, []).append((node.lineno, node.end_lineno))

    for path, qualname in PRODUCERS:
        node = _find(inventory.tree(path), qualname)
        produced(path, node)
        names.update(dict.fromkeys(_keys_written(node), False))
    for path, tree in inventory.library():
        for call, arg in _metric_calls(tree):
            produced(path, call)
            if _string(arg):
                names[arg.value] = False
            elif isinstance(arg, ast.JoinedStr):
                prefix = _string(arg.values[0])
                assert prefix, f"{path}:{call.lineno}: no literal prefix"
                names[prefix] = True
            else:
                assert path in INDIRECT, (
                    f"{path}:{call.lineno}: a metric name the scan cannot "
                    "read; pass a literal or an f-string, or add the "
                    "module to INDIRECT"
                )
                where, qualname = INDIRECT[path]
                node = _find(inventory.tree(where), qualname)
                produced(where, node)
                names.update(dict.fromkeys(_keys_written(node), False))
        for node, name in _metrics_written(tree):
            produced(path, node)
            names[name] = False
    return names, spans


def _quoted_reads(tree: ast.Module):
    """``(node, key)`` of every quoted key a program takes back, and
    ``(node, attr)`` of every attribute it loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = _string(node.slice)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            key = _string(node.args[0])
        elif isinstance(node, ast.Compare) and isinstance(
            node.ops[0], (ast.In, ast.NotIn)
        ):
            key = _string(node.left)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            key = node.attr
        else:
            continue
        if key:
            yield node, key


def unread(names, spans) -> set[str]:
    """The reported names no program takes back outside a producer."""
    read = set()
    for where, tree in inventory.programs():
        inside = spans.get(where, ())
        for node, key in _quoted_reads(tree):
            if any(a <= node.lineno <= b for a, b in inside):
                continue
            read.update(
                name
                for name, prefix in names.items()
                if key == name or prefix and key.startswith(name)
            )
    return names.keys() - read


NAMES, SPANS = reported()
UNREAD = unread(NAMES, SPANS)


def test_the_inventory_sees_every_kind_of_producer():
    assert {"jobs_done", "inflight_hwm", "bad_hellos", "queue_hwm"} <= NAMES.keys()
    assert NAMES["comm/pending/P"] is True
    assert {"wire/frames", "wire/net_control_bytes"} <= NAMES.keys()


def test_every_unread_number_has_a_row():
    inventory.check_subset(
        UNREAD,
        ROWS,
        "are reported but nothing reads them; read each in src/, "
        "examples/, benchmarks/ or a docs block, give it a row in ROWS, "
        "or stop reporting it",
    )


def test_every_row_names_an_unread_number():
    inventory.check_subset(
        ROWS, UNREAD, "have a reader or are no longer reported; delete their rows"
    )


@pytest.mark.parametrize("name, row", sorted(ROWS.items()), ids=sorted(ROWS))
def test_every_needle_is_in_its_file(name, row):
    inventory.check_row(KIND_PATHS, name, row)
