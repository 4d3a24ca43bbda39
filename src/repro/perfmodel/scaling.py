"""Scaling analysis on top of the machine models.

Figure 2's message is a fixed-size (strong-scaling) curve; two standard
analyses complete the picture and are cheap to derive from the same
cost model:

* :func:`isoefficiency` — for each P, the smallest cubic grid that
  sustains a target efficiency: the classic isoefficiency function,
  which for a 3-D stencil with surface communication grows like
  ``P`` in total volume (edge ~ P^(1/3)) on a switched network, and
  much faster on the shared-Ethernet model — quantifying *why* the
  Suns stopped scaling where they did;
* :func:`weak_scaling_series` — constant work per process, the
  Gustafson-style counterpart of Figure 2.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.perfmodel.fdtd_model import (
    estimate_parallel_time,
    estimate_sequential_time,
)
from repro.perfmodel.machine import MachineModel

__all__ = ["isoefficiency", "weak_scaling_series"]


def _efficiency(
    edge: int, steps: int, nprocs: int, machine: MachineModel, version: str
) -> float:
    grid = (edge, edge, edge)
    seq = estimate_sequential_time(grid, steps, machine, version)
    par = estimate_parallel_time(grid, steps, nprocs, machine, version).total
    return seq / par / nprocs


def isoefficiency(
    process_counts,
    machine: MachineModel,
    target: float = 0.5,
    steps: int = 128,
    version: str = "A",
    max_edge: int = 1024,
) -> dict[int, int | None]:
    """Smallest cubic grid edge sustaining ``target`` efficiency per P.

    ``None`` marks process counts for which no grid up to ``max_edge``
    reaches the target (the machine's latency floor dominates).
    Monotone bisection over the edge length.
    """
    if not 0 < target < 1:
        raise ModelError(f"target efficiency must be in (0,1), got {target}")
    out: dict[int, int | None] = {}
    for p in process_counts:
        lo, hi = 2, max_edge
        # Efficiency grows with problem size for these models; find the
        # first feasible edge, then bisect.
        best: int | None = None
        if _try_eff(hi, steps, p, machine, version) is None:
            out[p] = None
            continue
        if (_try_eff(hi, steps, p, machine, version) or 0.0) < target:
            out[p] = None
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            eff = _try_eff(mid, steps, p, machine, version)
            if eff is not None and eff >= target:
                best = mid
                hi = mid
            else:
                lo = mid + 1
        out[p] = best if best is not None else (lo if lo <= max_edge else None)
        # confirm
        eff = _try_eff(out[p], steps, p, machine, version) if out[p] else None
        if eff is None or eff < target:
            out[p] = None
    return out


def _try_eff(edge, steps, p, machine, version):
    try:
        return _efficiency(edge, steps, p, machine, version)
    except Exception:
        return None


def weak_scaling_series(
    base_edge: int,
    process_counts,
    machine: MachineModel,
    steps: int = 128,
    version: str = "A",
) -> list[tuple[int, float, float]]:
    """Constant volume per process: ``(P, time, weak efficiency)``.

    The grid is scaled so each process keeps ``base_edge^3`` cells
    (cube-rounded); weak efficiency is ``T(1) / T(P)`` — flat lines are
    perfect weak scaling.
    """
    base_time = None
    out = []
    for p in process_counts:
        edge = round(base_edge * p ** (1.0 / 3.0))
        t = estimate_parallel_time(
            (edge, edge, edge), steps, p, machine, version
        ).total
        if base_time is None:
            base_time = t
        out.append((p, t, base_time / t))
    return out
