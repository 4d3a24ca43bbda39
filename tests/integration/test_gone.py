"""What a refactor deleted stays deleted: one table of patterns that
match nowhere.

A row of :data:`GONE` is a regular expression naming what a commit
deleted, the scopes it must not come back to (``fnmatch`` patterns of
repo-relative paths; ``*`` crosses ``/``), the paths exempt from it and
one sample line it reports.  Every file under a scope is read, as
``grep -r`` reads a checkout, but a ``__pycache__`` (a stale bytecode
cache is not the code) and this file, whose patterns match themselves.
A name deleted with its tests gets a row here.
"""

import fnmatch
import os
import pathlib
import re
from typing import NamedTuple

import pytest

from tests.integration import inventory

TABLE = inventory.rel(pathlib.Path(__file__).resolve())


class Gone(NamedTuple):
    pattern: str
    scopes: tuple[str, ...]
    deleted: str
    exempt: tuple[str, ...]
    sample: str


SRC, SRC_PY, CODE = ("src/*",), ("src/*.py",), ("src/*", "tests/*")
ALL = ("src/*", "tests/*", "examples/*", "docs/*")
ENGINES = "src/repro/runtime/__init__.py"  # make_engine's one spelling

GONE = [
    Gone(
        r"payload_slab|SlabWriter|SlabReader|ChannelSegment|SharedCounter|new_channel"
        r"|ProcChannel|PIPE_BUF|syscalls_unvectored",
        SRC, "f4c2bce: the pipe channel and the payload slab", (), "SlabReader(seg)",
    ),
    Gone(
        r"trace_causal|\.causal\b|causal_events|causal_depth",
        SRC, "3a8e8a7: a second trace switch", (), "events = result.causal",
    ),
    Gone(
        r"PrefixPolicy|RecordingPolicy|action_log|run_prefix|count_interleavings"
        r"|keep_schedules|ReducedEnumeration|ReductionOverflow|sleep_sets|pruned_sleep"
        r"|attempts_factor",
        SRC, "eb324d9: a second schedule-tree search", (), "PrefixPolicy(prefix)",
    ),
    Gone(
        r"pool=True|pool=False|_pool_opt|_owned_pool",
        CODE, "d862d55: the pool bool and the scoped pool", (), "engine(pool=True)",
    ),
    Gone(
        r"multiprocess\+pool",
        SRC_PY, "d862d55: the fifth engine name", (ENGINES,), '"multiprocess+pool"',
    ),
    Gone(
        r"make_global_applier|make_local_applier|make_split_local_appliers|apply_global"
        r"|_index_in_strips",
        CODE, "ac698fd: the per-source appliers", (), "source.apply_global(fields)",
    ),
    Gone(
        r"on_full|ServerSaturatedError|jobs_rejected|include_io_stages|use_scratch"
        r"|drain_timeout|max_capacity=",
        ALL, "4397d2f: options only tests set", (), 'JobServer(on_full="reject")',
    ),
    Gone(
        r"ParallelizationPlan|fdtd_plan|PlanError|RefinementPipeline|RefinementVerdict"
        r"|ComputationSpec|VariableSpec",
        ALL, "296e148: a second record of the methodology", (), "fdtd_plan(config)",
    ),
    Gone(
        r"(?<!\w)(?:exchange_boundaries_msg|fill_ghosts_from_global|reduce_stages"
        r"|face_region_shape|global_to_local|local_to_global|owner_of|touches_boundary"
        r"|boundary_ranks|all_ranks|operation_names|result_from|is_strictly_alternating"
        r"|_fuse_local_blocks|count_trace_classes|event_key|parallelism_profile"
        r"|count_independent_adjacent_pairs|communication_events|channels_read_by"
        r"|channels_written_by|Stopwatch|bitwise_equal_stores|pairwise_sum|neumaier_sum"
        r"|sorted_sum|efficiency_table|max_abs_field|run_parallel)(?!\w)",
        ALL, "af8bb38: public names only tests called", (), "run_parallel",
    ),
    Gone(
        r"\.(normalized|begin_exchange|end_exchange|operation|define)\("
        r"|\.(max_len|circular)\b",
        ALL, "af8bb38: public methods only tests called", (), "op.begin_exchange(x)",
    ),
    Gone(
        r"export_metrics|engine_breakdown|throughput_jobs_per_s|queue_depth_hwm"
        r"|jobs_submitted|queue_wait_p50_s|rank_utilization|attempts_max|fleet/retries"
        r"|serve/jobs_",
        ALL, "382edb6: numbers nothing read", (), 'stats["queue_depth_hwm"]',
    ),
    Gone(
        r"connect_retry|probe_stats|_BACKOFF_(FIRST|MAX)",
        ALL, "dial once: the dial backoff and a second stats ping", (),
        "sock = connect_retry(addr, timeout)",
    ),
    Gone(
        r"_HAS_SENDMSG|_sendall",
        CODE, "dial once: the send fallback without sendmsg", (),
        "if _HAS_SENDMSG:",
    ),
]


def in_scope(row: Gone, path: str) -> bool:
    return path not in row.exempt and any(
        fnmatch.fnmatchcase(path, scope) for scope in row.scopes
    )


def hits(root: pathlib.Path, rows=GONE) -> list[tuple[str, int, str]]:
    """``(path, line, deleted)`` of every match under ``root``."""
    found = []
    for top in sorted({scope.split("/")[0] for row in rows for scope in row.scopes}):
        for folder, dirs, files in os.walk(root / top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                file = pathlib.Path(folder, name)
                path = file.relative_to(root).as_posix()
                here = [row for row in rows if in_scope(row, path)]
                if not here or path == TABLE:
                    continue
                text = file.read_bytes().decode("utf-8", "replace")
                for row in here:
                    for match in re.finditer(row.pattern, text, re.ASCII):
                        line = text.count("\n", 0, match.start()) + 1
                        found.append((path, line, row.deleted))
    return found


def test_nothing_deleted_is_back():
    found = hits(inventory.ROOT)
    assert not found, "deleted code is back:\n" + "\n".join(
        f"{path}:{line}: {deleted}" for path, line, deleted in found
    )


PLACES = ("src/repro/m.py", "src/notes.txt", "tests/t.py", "examples/e.py", "docs/d.md")
PLACES += ("benchmarks/b.py", "README.md")
CACHES = ("src/repro/__pycache__/m.cpython-312.pyc", "tests/__pycache__/t.py")


@pytest.mark.parametrize("row", GONE, ids=[row.deleted for row in GONE])
def test_each_row_reports_its_sample_in_scope_only(row, tmp_path):
    def plant(path, line):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(f"x = 1\n{line}\n")

    for path in PLACES + CACHES + row.exempt + (TABLE,):
        plant(path, row.sample)
    expected = {path for path in PLACES if in_scope(row, path)}
    for scope in row.scopes:
        assert any(fnmatch.fnmatchcase(path, scope) for path in expected)
    if row.pattern.startswith(r"(?<!\w)"):
        plant("src/repro/longer.py", f"x{row.sample}x = 1")
    found = {(path, line) for path, line, _ in hits(tmp_path, [row])}
    assert found == {(path, 2) for path in expected}
