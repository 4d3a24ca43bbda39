"""Observables: energy and probes.

These are the "reduction operations" of the mesh archetype as they
appear in the application — grid-to-scalar computations whose parallel
form is a local partial plus a combining step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.fdtd.constants import EPS0, MU0
from repro.apps.fdtd.grid import E_COMPONENTS, H_COMPONENTS, FieldSet, YeeGrid

__all__ = ["field_energy", "Probe"]


def field_energy(
    grid: YeeGrid,
    fields: FieldSet,
    eps_r: np.ndarray | None = None,
    mu_r: np.ndarray | None = None,
) -> float:
    """Total electromagnetic energy ``(eps E^2 + mu H^2) / 2`` summed
    over the grid (cell volume weighted).

    Node-sampled, like the material maps; adequate as a stability /
    regression observable (energy in a lossless PEC box must stay
    bounded; with Mur walls it must decay).
    """
    dv = float(np.prod(grid.spacing))
    eps = EPS0 * (eps_r if eps_r is not None else 1.0)
    mu = MU0 * (mu_r if mu_r is not None else 1.0)
    e2 = sum(fields[c] ** 2 for c in E_COMPONENTS)
    h2 = sum(fields[c] ** 2 for c in H_COMPONENTS)
    return float(0.5 * dv * (np.sum(eps * e2) + np.sum(mu * h2)))


@dataclass
class Probe:
    """Record one component at one node every step."""

    component: str
    index: tuple[int, int, int]

    def __post_init__(self) -> None:
        self.series: list[float] = []

    def sample(self, fields: FieldSet) -> None:
        self.series.append(float(fields[self.component][self.index]))

    def values(self) -> np.ndarray:
        return np.asarray(self.series)
