"""Version C: near-field plus far-field sequential code (paper §4.1).

"Version C [Beggs et al.], which performs both near-field and far-field
calculations": everything Version A does, plus the near-to-far-field
transformation — radiation vector potentials accumulated at every step
by integrating equivalent currents over a closed surface near the grid
boundary (:mod:`repro.apps.fdtd.ntff`).

The far-field accumulation runs after the H update each step (the whole
grid's :class:`~repro.apps.fdtd.step.RankPass` accumulates into the
driver's own potentials), over the full surface in global traversal
order.  That order is the baseline
against which the reordered (per-process partial) summation of the
parallelized version is compared in experiment E2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.fdtd.ntff import NTFFAccumulator, NTFFConfig
from repro.apps.fdtd.version_a import FDTDConfig, SequentialResult, VersionA

__all__ = ["VersionC", "FarFieldResult"]


@dataclass
class FarFieldResult(SequentialResult):
    """Sequential result extended with radiation vector potentials."""

    #: (ndirections, nbins, 3) potential from J = n x H
    vector_potential_A: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0, 3))
    )
    #: (ndirections, nbins, 3) potential from M = -n x E
    vector_potential_F: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0, 3))
    )


class VersionC(VersionA):
    """Sequential near-field + far-field driver."""

    name = "version-C"

    def __init__(self, config: FDTDConfig, ntff: NTFFConfig | None = None):
        super().__init__(config)
        self.ntff_config = ntff or NTFFConfig()
        self.ntff = NTFFAccumulator(
            self.grid, self.ntff_config, steps=config.steps
        )
        self._pass.accumulator = self.ntff

    def _arrays(self, fields) -> dict:
        arrays = super()._arrays(fields)
        arrays["ffA"], arrays["ffF"] = self.ntff.potentials()
        return arrays

    def _make_result(self, fields) -> FarFieldResult:
        base = super()._make_result(fields)
        A, F = self.ntff.potentials()
        return FarFieldResult(
            fields=base.fields,
            probes=base.probes,
            energy=base.energy,
            vector_potential_A=A.copy(),
            vector_potential_F=F.copy(),
        )

    def run(self) -> FarFieldResult:
        self.ntff.reset()  # allow repeated runs of one driver instance
        return super().run()  # type: ignore[return-value]
