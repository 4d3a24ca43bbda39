"""Version A: the near-field-only sequential FDTD code (paper §4.1).

"Version A [Kunz & Luebbers], which performs only the near-field
calculations": a time-stepped simulation of the electric and magnetic
fields over the 3-D grid — at each step the electric field is updated
from the magnetic fields at the point and neighbouring points, then the
magnetic fields from the electric fields.

This module defines the shared configuration dataclass and the
sequential driver.  The per-step order of operations is a **contract**
shared with the parallelized versions (they must perform bitwise the
same arithmetic):

1. Mur ABC: record boundary planes (when ``boundary="mur1"``)
2. E update (interior regions)
3. Mur ABC: write boundary planes
4. additive sources into E components
5. H update
6. far-field surface accumulation (Version C only)
7. probes / diagnostics
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.fdtd.boundary import Mur1
from repro.apps.fdtd.diagnostics import Probe, field_energy
from repro.apps.fdtd.grid import COMPONENTS, FieldSet, YeeGrid
from repro.apps.fdtd.materials import CoefficientSet, MaterialGrid
from repro.apps.fdtd.sources import GaussianBallInitial, PointSource
from repro.apps.fdtd.step import RankPass
from repro.apps.fdtd.update import KernelScratch
from repro.errors import FDTDError

__all__ = ["FDTDConfig", "SequentialResult", "VersionA"]


@dataclass
class FDTDConfig:
    """Complete description of one FDTD run."""

    grid: YeeGrid
    steps: int
    materials: MaterialGrid | None = None
    sources: list[PointSource] = field(default_factory=list)
    initial: list[GaussianBallInitial] = field(default_factory=list)
    boundary: str = "pec"  # "pec" | "mur1"
    probes: list[Probe] = field(default_factory=list)
    energy_every: int = 0  # 0: no energy series

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise FDTDError(f"steps must be >= 1, got {self.steps}")
        if self.boundary not in ("pec", "mur1"):
            raise FDTDError(
                f"unknown boundary {self.boundary!r} (pec or mur1)"
            )
        for src in self.sources:
            src.validate(self.grid)
            if not src.component.startswith("e"):
                raise FDTDError(
                    "only E-component sources are supported (applied after "
                    "the E update)"
                )

    def coefficient_set(self) -> CoefficientSet:
        mats = self.materials or MaterialGrid(self.grid)
        return mats.coefficients()

    def initial_fields(self) -> FieldSet:
        fields = FieldSet.zeros(self.grid)
        for exc in self.initial:
            exc.apply(self.grid, fields)
        return fields


@dataclass
class SequentialResult:
    """Outputs of a sequential run."""

    fields: FieldSet
    probes: dict[str, np.ndarray] = field(default_factory=dict)
    energy: list[tuple[int, float]] = field(default_factory=list)


class VersionA:
    """Sequential near-field driver.

    The whole grid is one :class:`~repro.apps.fdtd.step.RankPass`, the
    same object a grid process steps its block with, so the step
    contract above is written once for every driver.  Its hot path is
    the pass's :class:`~repro.apps.fdtd.step.StepPlan`, bound at the
    first step of each run.  The unbound oracle is ``update_e`` /
    ``update_h`` (with ``scratch=None``, the reference expression); the
    kernel tests check that the two are bitwise identical.
    """

    name = "version-A"

    def __init__(self, config: FDTDConfig):
        self.config = config
        self.grid = config.grid
        self.coefs = config.coefficient_set()
        grid = self.grid
        self._pass = RankPass(
            regions={comp: grid.update_region(comp) for comp in COMPONENTS},
            mur=Mur1(grid) if config.boundary == "mur1" else None,
            drives=[(src, src.global_region(grid)) for src in config.sources],
            accumulator=None,
            inv_spacing=tuple(1.0 / d for d in grid.spacing),
            scratch=KernelScratch(),
            steps=config.steps,
        )

    # -- hooks for Version C -------------------------------------------------

    def _arrays(self, fields: FieldSet) -> dict:
        """The arrays one run steps: fields and coefficients (Version C
        adds its far-field potentials)."""
        arrays = dict(fields.components())
        arrays.update(self.coefs.arrays())
        return arrays

    def _make_result(self, fields: FieldSet) -> SequentialResult:
        result = SequentialResult(fields=fields)
        for probe in self.config.probes:
            key = f"{probe.component}{probe.index}"
            result.probes[key] = probe.values()
        return result

    # -- the run -----------------------------------------------------------------

    def run(self) -> SequentialResult:
        config = self.config
        fields = config.initial_fields()
        arrays = self._arrays(fields)
        step_pass = self._pass
        energy: list[tuple[int, float]] = []

        for step in range(config.steps):
            step_pass.e(arrays, step)
            step_pass.h(arrays, step)
            for probe in config.probes:
                probe.sample(fields)
            if config.energy_every and step % config.energy_every == 0:
                mats = config.materials
                energy.append(
                    (
                        step,
                        field_energy(
                            self.grid,
                            fields,
                            eps_r=mats.eps_r if mats else None,
                            mu_r=mats.mu_r if mats else None,
                        ),
                    )
                )

        result = self._make_result(fields)
        result.energy = energy
        return result
