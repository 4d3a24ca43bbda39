"""Paper-shaped reports: Table 1 and Figure 2.

``table1_report`` tabulates the rows of the paper's Table 1 — "Execution
times and speedups for electromagnetics code (version C), for 33 by 33
by 33 grid, 128 steps, using Fortran M on a network of Suns" — from the
machine model.  ``figure2_report`` tabulates the two panels of Figure 2 —
execution time (actual vs ideal) and speedup (actual vs perfect) for
"electromagnetics code (version A) for 66 by 66 by 66 grid, 512 steps
... on the IBM SP" — as aligned series plus an ASCII rendering of the
speedup curve.
"""

from __future__ import annotations

from repro.perfmodel.fdtd_model import (
    estimate_parallel_time,
    estimate_sequential_time,
)
from repro.perfmodel.machine import IBM_SP2, SUN_ETHERNET, MachineModel
from repro.util import Table

__all__ = ["table1_report", "figure2_report", "ascii_curve"]


def table1_report(
    machine: MachineModel = SUN_ETHERNET,
    grid_cells: tuple[int, int, int] = (33, 33, 33),
    steps: int = 128,
    process_counts: tuple[int, ...] = (2, 4, 8),
) -> Table:
    """The Table 1 analogue (modeled, see DESIGN.md substitutions): a row
    ``[label, seconds, speedup]`` for the sequential run and each P."""
    seq = estimate_sequential_time(grid_cells, steps, machine, version="C")
    rows: list[list] = [["Sequential", seq, 1.0]]
    for p in process_counts:
        t = estimate_parallel_time(
            grid_cells, steps, p, machine, version="C"
        ).total
        rows.append([f"Parallel, P = {p}", t, seq / t])
    title = (
        "Table 1 (modeled): execution times and speedups for "
        f"electromagnetics code (version C), {grid_cells[0]} by "
        f"{grid_cells[1]} by {grid_cells[2]} grid, {steps} steps,\n"
        f"machine model: {machine.describe()}"
    )
    return Table(
        ["", "Execution time (seconds)", "Speedup"],
        rows,
        formats=["{}", "{:.1f}", "{:.2f}"],
        title=title,
    )


def ascii_curve(
    xs: list[float],
    series: dict[str, list[float]],
    width: int = 58,
    height: int = 16,
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Plot one or more series as an ASCII chart (linear axes)."""
    all_y = [y for ys in series.values() for y in ys]
    y_min, y_max = 0.0, max(all_y) * 1.05
    x_min, x_max = min(xs), max(xs)
    canvas = [[" "] * width for _ in range(height)]
    markers = "*o+x#"
    for (label, ys), mark in zip(series.items(), markers):
        for x, y in zip(xs, ys):
            col = int((x - x_min) / (x_max - x_min or 1) * (width - 1))
            row = int((y - y_min) / (y_max - y_min or 1) * (height - 1))
            canvas[height - 1 - row][col] = mark
    lines = []
    if ylabel:
        lines.append(ylabel)
    for i, row in enumerate(canvas):
        ytick = y_max - (y_max - y_min) * i / (height - 1)
        lines.append(f"{ytick:8.1f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{x_min:<10.0f}{xlabel:^{width - 20}}{x_max:>8.0f}")
    legend = "   ".join(
        f"{mark} {label}" for (label, _), mark in zip(series.items(), markers)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def figure2_report(
    machine: MachineModel = IBM_SP2,
    grid_cells: tuple[int, int, int] = (66, 66, 66),
    steps: int = 512,
    process_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> tuple[Table, str]:
    """The Figure 2 analogue (modeled): the time and speedup panels as
    one table of rows ``[P, actual s, ideal s, speedup, perfect]``, and
    the speedup panel drawn by :func:`ascii_curve`."""
    seq = estimate_sequential_time(grid_cells, steps, machine, version="A")
    rows = []
    for p in process_counts:
        t = estimate_parallel_time(grid_cells, steps, p, machine, version="A").total
        rows.append([p, t, seq / p, seq / t, float(p)])
    table = Table(
        [
            "Processors",
            "Time actual (s)",
            "Time ideal (s)",
            "Speedup actual",
            "Speedup perfect",
        ],
        rows,
        formats=["{}", "{:.1f}", "{:.1f}", "{:.2f}", "{:.0f}"],
        title=(
            "Figure 2 (modeled): execution times and speedups for "
            f"electromagnetics code (version A), {grid_cells[0]} by "
            f"{grid_cells[1]} by {grid_cells[2]} grid, {steps} steps,\n"
            f"sequential: {seq:.1f}s; machine model: {machine.describe()}"
        ),
    )
    curve = ascii_curve(
        [float(p) for p in process_counts],
        {"actual": [r[3] for r in rows], "perfect": [r[4] for r in rows]},
        xlabel="Processors",
        ylabel="Speedup",
    )
    return table, curve
