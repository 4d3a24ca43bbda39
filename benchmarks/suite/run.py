"""One traced benchmark suite for every engine and serving front-end.

Two ways in, one measurement path:

* ``python benchmarks/suite/run.py --workload W --seed N --seconds S
  --trace 0|1`` runs one workload in this process and prints, as its
  last line, ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0``, the per-layer ledger with
  ``--trace 1``.  This is the command in ``BENCHMARK.json``.
* ``python benchmarks/suite/run.py [--seed N] [--workloads a,b]
  [--smoke] [--out DIR]`` runs every workload, each pass in a fresh
  child interpreter (the command above), one at a time, prints every
  metric by name with its unit, and writes ``results.json`` plus one
  span file per workload under ``--out``.

Either way the exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # setup_s counts from here: before imports

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

import reaper  # noqa: E402  (sibling modules; neither imports anything heavy)
import registry  # noqa: E402

#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 0.3


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run this one workload in-process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", help="comma-separated subset (suite mode)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids, 2 repetitions, same schema")
    p.add_argument("--out", type=Path, default=SUITE / "out")
    p.add_argument("--inject-corruption", action="store_true",
                   help="self-test hook: flip one bit of one collected "
                   "field; the run must count it as a failed operation")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else registry.RUN_SECONDS
    return args


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def drive(args: argparse.Namespace) -> int:
    if args.workload not in registry.WORKLOAD_BY_NAME:
        print(f"unknown workload {args.workload!r}; options: "
              + ", ".join(registry.WORKLOAD_BY_NAME), file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    reaper.become_subreaper()
    import harness
    from spans import Tracer

    name = args.workload
    inputs = registry.make_inputs(name, args.seed, args.smoke)
    ledger = harness.Ledger()
    detail: dict = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
    }
    try:
        if args.trace:
            import layers

            tracer = Tracer(name, enabled=True)
            with tracer.span("workload"):
                values = layers.trace_pass(inputs, tracer, ledger, args.smoke)
            metrics = registry.PER_LAYER
            detail["values"] = {k: {"value": v} for k, v in values.items()}
            detail["span_coverage"] = tracer.coverage(0)
            detail["self_time_s"] = tracer.self_times()
            tracer.write_chrome(args.out / f"trace.{name}.json")
        else:
            detail.update(
                harness.untraced_pass(
                    inputs, args.seconds, ledger, T_START,
                    args.smoke, args.inject_corruption,
                )
            )
            metrics = registry.END_TO_END
    except harness.OpTimeout:
        # The engines' state is unknown after a timeout (already in the
        # ledger): report no metrics; the reaper below ends the children.
        detail.setdefault("values", {})
        metrics = ()
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        traceback.print_exc()
        ledger.fail(f"pass aborted: {type(exc).__name__}: {exc}")
        detail.setdefault("values", {})
        metrics = ()
    finally:
        # Whatever happened above, no process this run started outlives
        # it: the resource tracker is released, stragglers are killed,
        # and every one of them is waited for.
        detail["killed_at_exit"] = reaper.reap_all()
    if detail["killed_at_exit"] and not ledger.failed:
        ledger.fail(f"processes killed at exit: {detail['killed_at_exit'][:3]}")
    detail["wall_s"] = time.perf_counter() - T_START

    out_metrics = {}
    for m in metrics:
        value = detail["values"].get(m.name, {}).get("value")
        if value is None or math.isnan(value):
            ledger.fail(f"metric {m.name} was not measured")
            continue
        out_metrics[m.name] = {"value": value, "unit": m.unit}
        print(f"{name:20s} {m.name:40s} {value:14.4f} {m.unit}")
    for reason in ledger.reasons:
        print(f"{name}: FAILED OP: {reason}", file=sys.stderr)
    detail["ops_attempted"] = max(1, ledger.attempted)
    detail["ops_failed"] = ledger.failed
    detail["failures"] = ledger.reasons
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"detail.{name}.t{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": detail["ops_attempted"],
        "failed": ledger.failed,
        "metrics": out_metrics,
    }))
    sys.stdout.flush()
    return 1 if ledger.failed else 0


# ---------------------------------------------------------------------------
# The whole suite: one child interpreter per workload and pass
# ---------------------------------------------------------------------------


def _git(*cmd: str) -> str:
    try:
        return subprocess.run(
            ["git", *cmd], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def manifest(args: argparse.Namespace) -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "suite_schema": registry.SCHEMA_VERSION,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": status not in ("", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hostname": platform.node(),
        "nproc": os.cpu_count(),
        "command": shlex.join([sys.executable, *sys.argv]),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_child(args, name: str, trace: int) -> dict:
    """One pass of one workload in a fresh interpreter; its detail."""
    cmd = [
        sys.executable, str(SUITE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(args.out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_corruption and not trace:
        cmd.append("--inject-corruption")
    detail_path = args.out / f"detail.{name}.t{trace}.json"
    detail_path.unlink(missing_ok=True)
    failure = None
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode not in (0, 1):
            failure = f"child exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        failure = f"child killed after {CHILD_TIMEOUT_S:.0f}s"
    reaper.reap_all()  # what a killed child left behind is ours now
    if detail_path.exists():
        detail = json.loads(detail_path.read_text())
    else:
        detail = {"workload": name, "trace": trace, "values": {},
                  "ops_attempted": 1, "ops_failed": 1, "failures": []}
        failure = failure or "child wrote no result"
    if failure:
        detail["ops_failed"] = max(1, detail["ops_failed"])
        detail["failures"].append(failure)
    return detail


def suite(args: argparse.Namespace) -> int:
    names = [w.name for w in registry.WORKLOADS]
    if args.workloads:
        names = args.workloads.split(",")
        unknown = [n for n in names if n not in registry.WORKLOAD_BY_NAME]
        if unknown:
            print(f"unknown workloads: {unknown}", file=sys.stderr)
            return 2
    args.out.mkdir(parents=True, exist_ok=True)
    reaper.become_subreaper()
    results = {"manifest": manifest(args), "workloads": {}}
    results["replay"] = (
        "PYTHONPATH=src " + results["manifest"]["command"]
        + f"  # at {results['manifest']['git_sha'][:12]}"
    )
    t_suite = time.perf_counter()
    reruns = 0
    for name in names:
        untraced = run_child(args, name, 0)
        # Host-noise guard: one rerun when the host changed speed inside
        # the pass; the rerun replaces the noisy pass and is counted.
        if (untraced.get("noisy") and not untraced["ops_failed"]
                and not args.smoke):
            reruns += 1
            again = run_child(args, name, 0)
            again["rerun_of_noisy"] = True
            untraced = again
        traced = run_child(args, name, 1)
        results["workloads"][name] = {"untraced": untraced, "traced": traced}
    results["noisy_reruns"] = reruns
    results["wall_s"] = time.perf_counter() - t_suite
    passes = [
        p for w in results["workloads"].values() for p in w.values()
    ]
    results["ops_attempted"] = sum(p["ops_attempted"] for p in passes)
    results["ops_failed"] = sum(p["ops_failed"] for p in passes)
    (args.out / "results.json").write_text(json.dumps(results, indent=1) + "\n")

    print_report(results)
    return 1 if results["ops_failed"] else 0


def print_report(results: dict) -> None:
    for kind, metrics in (
        ("untraced", registry.END_TO_END),
        ("traced", registry.PER_LAYER),
    ):
        print(f"\n== {'end-to-end' if kind == 'untraced' else 'per-layer'}"
              f" metrics ({kind} pass) ==")
        for name, passes in results["workloads"].items():
            values = passes[kind]["values"]
            for m in metrics:
                v = values.get(m.name)
                if v is None:
                    print(f"{name:20s} {m.name:40s} {'MISSING':>14s}")
                    continue
                extra = ""
                if "median" in v:
                    extra = (f"  (raw {v['raw_value']:.4f}, best "
                             f"{v['best']:.4f}, median {v['median']:.4f}, "
                             f"q1 {v['q1']:.4f}, q3 {v['q3']:.4f}, n {v['n']})")
                print(f"{name:20s} {m.name:40s} {v['value']:14.4f} "
                      f"{m.unit}{extra}")
    print()
    for name, passes in results["workloads"].items():
        for kind, p in passes.items():
            flags = "".join(
                f" {k}" for k in ("noisy", "rerun_of_noisy") if p.get(k)
            )
            print(f"{name:20s} {kind:9s} ops {p['ops_attempted']:5d} "
                  f"failed {p['ops_failed']:3d}  "
                  f"wall {p.get('wall_s', float('nan')):6.1f} s{flags}")
            for reason in p["failures"]:
                print(f"    FAILED: {reason}")
    print(f"\nops attempted {results['ops_attempted']}, failed "
          f"{results['ops_failed']}; noisy reruns {results['noisy_reruns']}; "
          f"suite wall {results['wall_s']:.1f} s")
    print(f"replay: {results['replay']}")


if __name__ == "__main__":
    _args = parse_args(sys.argv[1:])
    sys.exit(drive(_args) if _args.workload else suite(_args))
