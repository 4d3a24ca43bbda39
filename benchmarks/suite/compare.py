"""Compare two ``results.json`` files of the suite, metric by metric.

``python benchmarks/suite/compare.py A.json B.json`` prints, for every
workload x end-to-end metric, A's and B's gated value with median and
interquartile range, the ratio B/A with its base, the bound from the
registry, and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — B is worse by more than the bound and the repetitions
  of both sides are tight enough to resolve a difference that size;
* ``unresolved`` — B reads worse by more than the bound, but the
  repetition spread (IQR / median) of A or B is itself wider than the
  bound, so the two sets cannot tell.

Failed-operation shares of both sides are printed beside the timings.
The exit code is 1 when any metric regressed or B failed more
operations than A — this is the tool the "two sets of the same commit
agree" criterion and every later gain claim are checked with.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import registry


def _spread(v: dict) -> float:
    return (v["q3"] - v["q1"]) / v["median"] if v["median"] else 0.0


def _cell(v: dict) -> str:
    return (f"{v['value']:.3f} (best {v['best']:.3f}, "
            f"iqr {v['q3'] - v['q1']:.3f}, n {v['n']})")


def compare(a: dict, b: dict) -> tuple[list[list[str]], bool]:
    rows: list[list[str]] = []
    regressed = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        va = a["workloads"][name]["untraced"]["values"]
        vb = b["workloads"][name]["untraced"]["values"]
        for m in registry.END_TO_END:
            if m.name not in va or m.name not in vb:
                rows.append([name, m.name, "-", "-", "-", "-", "missing"])
                regressed = True
                continue
            x, y = va[m.name], vb[m.name]
            ratio = y["value"] / x["value"]
            worse = ratio - 1.0 if m.better == "lower" else 1.0 - ratio
            if worse <= m.bound:
                verdict = "ok"
            elif max(_spread(x), _spread(y)) > m.bound:
                verdict = "unresolved"
            else:
                verdict = "regressed"
                regressed = True
            rows.append([
                name,
                m.name,
                _cell(x),
                _cell(y),
                f"{ratio:.3f} x {x['value']:.3f} {m.unit}",
                f"{m.bound:.2f}",
                verdict,
            ])
    return rows, regressed


def _failed_share(results: dict) -> str:
    return (f"{results['ops_failed']}/{results['ops_attempted']} "
            f"({results['ops_failed'] / max(1, results['ops_attempted']):.2%})")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    for side, r in (("A", a), ("B", b)):
        man = r["manifest"]
        print(f"{side}: {man['git_sha'][:12]}{'+dirty' if man['git_dirty'] else ''}"
              f" seed {man['seed']} on {man['hostname']} "
              f"({man['nproc']} cpus), failed ops {_failed_share(r)}")
    rows, regressed = compare(a, b)
    header = ["workload", "metric", "A", "B", "B/A x base", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    more_failures = b["ops_failed"] > a["ops_failed"]
    counts = {v: sum(r[-1] == v for r in rows)
              for v in ("ok", "unresolved", "regressed", "missing")}
    print("\n" + ", ".join(f"{n} {v}" for v, n in counts.items())
          + ("; B failed more operations than A" if more_failures else ""))
    return 1 if regressed or more_failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
