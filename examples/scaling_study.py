#!/usr/bin/env python
"""A scaling study on the modeled machines.

Extends Figure 2's single strong-scaling curve into the surrounding
design space, using the same validated cost model:

* strong scaling (Figure 2's axis) at two problem sizes;
* weak scaling (constant cells per process);
* the isoefficiency function — how fast the problem must grow to keep
  each machine 50% efficient — which makes the difference between the
  SP switch and the shared Ethernet quantitative.

Run:  python examples/scaling_study.py
"""

from repro.perfmodel import IBM_SP2, SUN_ETHERNET, speedup_series
from repro.perfmodel.scaling import (
    isoefficiency,
    weak_scaling_series,
)
from repro.util import format_table

PS = (1, 2, 4, 8, 16, 32)


def strong_scaling() -> None:
    print("== strong scaling (Version A, IBM SP model) ==")
    rows = []
    for edge in (33, 66):
        series = speedup_series((edge,) * 3, 128, IBM_SP2, PS, "A")
        rows.append([f"{edge}^3"] + [f"{s:.2f}" for _, _, s in series])
    print(format_table(["grid"] + [f"P={p}" for p in PS], rows))
    print("(the larger grid scales further — surface/volume at work)\n")


def weak_scaling() -> None:
    print("== weak scaling (40^3 cells per process) ==")
    rows = []
    for machine in (IBM_SP2, SUN_ETHERNET):
        series = weak_scaling_series(40, (1, 8, 27), machine)
        rows.append(
            [machine.name.split(" (")[0]]
            + [f"{e:.2f}" for _, _, e in series]
        )
    print(format_table(["machine", "P=1", "P=8", "P=27"], rows))
    print()


def iso() -> None:
    print("== isoefficiency: smallest cubic grid for 50% efficiency ==")
    rows = []
    for machine in (IBM_SP2, SUN_ETHERNET):
        iso_map = isoefficiency((2, 8, 32), machine, target=0.5, max_edge=512)
        rows.append(
            [machine.name.split(" (")[0]]
            + [
                (f"{edge}^3" if edge is not None else ">512^3 (never)")
                for edge in iso_map.values()
            ]
        )
    print(format_table(["machine", "P=2", "P=8", "P=32"], rows))
    print("(the shared Ethernet cannot stay efficient at scale — the "
          "quantitative reason Table 1 flattens where Figure 2 keeps climbing)")


if __name__ == "__main__":
    strong_scaling()
    weak_scaling()
    iso()
