"""Self-test of the benchmark suite (run explicitly; not in Tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Checks the contract between the code's registry and ``BENCHMARK.json``,
then drives ``run.py --smoke`` end to end: schema of both passes, the
exact-count metrics repeating exactly, span coverage, the corruption
hook, ``compare.py``, that no process outlives a run, and the refusal
to run without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import reaper  # noqa: E402
import registry  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SMOKE_WORKLOADS = "near_small,far_mid"


def run(*argv: str, cwd: Path = ROOT, script: Path = SUITE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- registry <-> BENCHMARK.json ---------------------------------------------


def test_benchmark_json_mirrors_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == registry.benchmark_json()


def test_names_units_and_counts_are_within_the_contract():
    spec = registry.benchmark_json()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [
        x["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for x in spec[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_layer_metric_names_what_it_should_move():
    e2e = {m.name for m in registry.END_TO_END}
    for m in registry.PER_LAYER:
        assert m.moves, f"{m.name} names nothing it should move"
        for metric, workload in m.moves:
            assert metric in e2e, (m.name, metric)
            assert workload in registry.WORKLOAD_BY_NAME, (m.name, workload)


def test_paired_workloads_share_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    a = registry.make_inputs("near_small", 3, smoke=True).kinds[0].config
    b = registry.make_inputs("near_small_batch", 3, smoke=True).kinds[0].config
    c = registry.make_inputs("near_small", 4, smoke=True).kinds[0].config
    assert a.sources == b.sources
    assert a.sources != c.sources


# -- the suite, end to end (smoke) -------------------------------------------


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory):
    """Two smoke sets of the same commit and seed."""
    outs = []
    for label in ("a", "b"):
        out = tmp_path_factory.mktemp(f"set_{label}")
        proc = run("--smoke", "--workloads", SMOKE_WORKLOADS, "--seed", "11",
                   "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    return outs


def test_results_schema_and_manifest(smoke_sets):
    results = json.loads((smoke_sets[0] / "results.json").read_text())
    for key in ("suite_schema", "git_sha", "git_dirty", "python", "numpy",
                "hostname", "nproc", "command", "seed"):
        assert key in results["manifest"], key
    assert results["replay"].startswith("PYTHONPATH=src ")
    assert results["ops_failed"] == 0 and results["ops_attempted"] > 0
    for name in SMOKE_WORKLOADS.split(","):
        passes = results["workloads"][name]
        assert set(passes["untraced"]["values"]) == {
            m.name for m in registry.END_TO_END
        }
        assert set(passes["traced"]["values"]) == {
            m.name for m in registry.PER_LAYER
        }
        assert all(
            v["value"] != 0 for v in passes["untraced"]["values"].values()
        )


def test_exact_counts_repeat_exactly(smoke_sets):
    a, b = (
        json.loads((out / "results.json").read_text()) for out in smoke_sets
    )
    exact = [m.name for m in registry.PER_LAYER if m.exact]
    assert {"archetypes.mesh.msgs_per_step", "archetypes.mesh.bytes_per_step",
            "dist.frames_per_run", "dist.net.bytes_per_run"} <= set(exact)
    for name in SMOKE_WORKLOADS.split(","):
        va, vb = (
            {k: v["value"] for k, v in r["workloads"][name]["traced"]["values"].items()}
            for r in (a, b)
        )
        for metric in exact:
            assert va[metric] == vb[metric], (name, metric)
        # Gather writes coalesce whatever is queued when the feeder
        # wakes, so the syscall count is timing-dependent (by a handful,
        # which is 15 % of a smoke run's ~50): near, not equal.
        syscalls = "dist.net.syscalls_per_run"
        assert abs(va[syscalls] - vb[syscalls]) <= 0.3 * va[syscalls]


def test_span_file_children_cover_the_workload_span(smoke_sets):
    for name in SMOKE_WORKLOADS.split(","):
        trace = json.loads((smoke_sets[0] / f"trace.{name}.json").read_text())
        events = trace["traceEvents"]
        root = next(e for e in events if e["args"]["parent"] is None)
        assert root["name"] == "workload"
        children = [
            e for e in events if e["args"]["parent"] == root["args"]["id"]
        ]
        covered = sum(e["dur"] for e in children)
        assert abs(covered - root["dur"]) <= 0.05 * root["dur"]
        names = {e["name"] for e in events}
        assert {"build", "to_parallel", "engine.run.threaded",
                "engine.run.mp_pool", "engine.run.socket",
                "probe.update_e", "probe.wire.encode"} <= names


def test_compare_two_sets(smoke_sets):
    a, b = (str(out / "results.json") for out in smoke_sets)
    same = run(a, a, script=SUITE / "compare.py")
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" in same.stdout and " 0 regressed" in same.stdout
    both = run(a, b, script=SUITE / "compare.py")
    assert both.returncode in (0, 1)  # smoke timings are not gated
    assert "run_ms.mp_pool" in both.stdout


# -- the single-workload command (what BENCHMARK.json names) -----------------


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_driver_command_prints_the_contract_line(tmp_path):
    for trace, metrics in ((0, registry.END_TO_END), (1, registry.PER_LAYER)):
        proc = run("--workload", "serve_tiny", "--seed", "5", "--seconds",
                   "0.3", "--trace", str(trace), "--smoke",
                   "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = last_json(proc.stdout)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m.name for m in metrics}
        for m in metrics:
            assert line["metrics"][m.name]["unit"] == m.unit


def test_a_flipped_bit_is_a_failed_operation(tmp_path):
    proc = run("--workload", "near_small", "--smoke", "--inject-corruption",
               "--out", str(tmp_path))
    assert proc.returncode == 1
    line = last_json(proc.stdout)
    assert line["correct"] is False and line["failed"] >= 1
    assert "not bitwise equal" in proc.stderr
    whole = run("--smoke", "--workloads", "near_small",
                "--inject-corruption", "--out", str(tmp_path))
    assert whole.returncode == 1
    assert "FAILED" in whole.stdout


def test_no_process_outlives_a_run(tmp_path):
    # As a subreaper this process inherits whatever a run leaves behind
    # — the resource tracker, an orphaned worker — the moment it exits.
    assert reaper.become_subreaper()
    before = set(reaper.children())
    for trace in ("0", "1"):
        proc = run("--workload", "near_small", "--smoke", "--trace", trace,
                   "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        left = {
            pid: cmd for pid, cmd in reaper.children().items()
            if pid not in before
        }
        assert not left, left
        detail = json.loads(
            (tmp_path / f"detail.near_small.t{trace}.json").read_text()
        )
        assert detail["killed_at_exit"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        SUITE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*command, "--workload", "near_small", "--seed", "1", "--seconds",
         "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
