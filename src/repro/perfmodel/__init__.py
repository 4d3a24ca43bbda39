"""Analytic performance model (substitution for the paper's testbeds).

The paper's performance numbers (Table 1, Figure 2) were measured on a
network of Sun workstations over Ethernet and on an IBM SP.  Neither
machine exists here, so — per the documented substitution — this
package models them: a latency/bandwidth/flop-rate
:class:`~repro.perfmodel.machine.MachineModel` with calibrated presets,
driven by exact operation counts extracted from the same decomposition
and communication schedule the real parallelization uses
(:mod:`~repro.perfmodel.costmodel`), assembled into per-configuration
execution-time and speedup estimates for FDTD Versions A and C
(:mod:`~repro.perfmodel.fdtd_model`) and formatted in the paper's
table/figure shapes (:mod:`~repro.perfmodel.report`).

The claim being reproduced is qualitative (the paper's own words:
"reasonably efficient"): monotone, sub-linear speedups, with Version A
on the SP's fast switch scaling visibly better than Version C on shared
10 Mbit Ethernet.  EXPERIMENTS.md records our modeled values against
that shape.
"""

from repro.perfmodel.machine import (
    IBM_SP2,
    SUN_ETHERNET,
    MachineModel,
)
from repro.perfmodel.costmodel import (
    CommVolume,
    FDTDStepCosts,
    fdtd_step_costs,
    exchange_comm_volume,
)
from repro.perfmodel.fdtd_model import (
    TimeBreakdown,
    estimate_parallel_time,
    estimate_sequential_time,
    speedup_series,
)
from repro.perfmodel.report import figure2_report, table1_report
from repro.perfmodel.scaling import (
    isoefficiency,
    weak_scaling_series,
)

__all__ = [
    "MachineModel",
    "SUN_ETHERNET",
    "IBM_SP2",
    "CommVolume",
    "FDTDStepCosts",
    "fdtd_step_costs",
    "exchange_comm_volume",
    "TimeBreakdown",
    "estimate_sequential_time",
    "estimate_parallel_time",
    "speedup_series",
    "table1_report",
    "figure2_report",
    "isoefficiency",
    "weak_scaling_series",
]
