"""Excitations: "an initial excitation is specified" (paper section 4.1).

Three excitation styles are provided:

* **time-dependent point sources** — an additive ("soft") source
  injecting a waveform into one field component at one node each step;
  localised, so in the parallel version exactly one grid process
  applies it (a per-process special computation, section 4.4 step 2);
* **time-dependent plane sources** — the same additive drive over a
  whole constant-axis sheet of one component, which usually spans
  several grid processes;
* **initial conditions** — a field bump present at t=0 (the literal
  "initial excitation"), useful for purely source-free runs.

A time-dependent source is the global node region it drives
(``global_region``) plus its value per step (``value``): every driver
adds ``value(step)`` into its share of that region, the sequential one
into the whole region, a grid process into its local intersection.

Waveforms are deterministic closed forms, so sequential / simulated /
parallel versions evaluate bitwise-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.apps.fdtd.grid import COMPONENTS, FieldSet, YeeGrid
from repro.errors import FDTDError

__all__ = [
    "GaussianPulse",
    "RickerWavelet",
    "SinusoidSource",
    "PointSource",
    "PlaneSource",
    "GaussianBallInitial",
]


@dataclass(frozen=True)
class GaussianPulse:
    """``exp(-((n - delay)/spread)^2)`` in units of time *steps*."""

    delay: float = 30.0
    spread: float = 10.0

    def __call__(self, step: int) -> float:
        u = (step - self.delay) / self.spread
        return math.exp(-u * u)


@dataclass(frozen=True)
class RickerWavelet:
    """Second derivative of a Gaussian (zero-mean; good for pulses whose
    spectrum must vanish at DC)."""

    delay: float = 30.0
    spread: float = 10.0

    def __call__(self, step: int) -> float:
        u = (step - self.delay) / self.spread
        return (1.0 - 2.0 * u * u) * math.exp(-u * u)


@dataclass(frozen=True)
class SinusoidSource:
    """Ramped continuous wave: ``sin(2 pi f n dt)`` with a smooth turn-on."""

    period_steps: float = 20.0
    ramp_steps: float = 40.0

    def __call__(self, step: int) -> float:
        ramp = 1.0 - math.exp(-((step / self.ramp_steps) ** 2))
        return ramp * math.sin(2.0 * math.pi * step / self.period_steps)


@dataclass(frozen=True)
class PointSource:
    """Additive source: ``component[index] += amplitude * waveform(n)``.

    Applied after the E update each step (only E components may be
    driven; :class:`~repro.apps.fdtd.version_a.FDTDConfig` rejects
    others).  ``index`` is a node index; it must be a valid node of the
    component (the solver checks at configuration time).
    """

    component: str
    index: tuple[int, int, int]
    waveform: object = GaussianPulse()
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.component not in COMPONENTS:
            raise FDTDError(
                f"unknown component {self.component!r}; "
                f"expected one of {COMPONENTS}"
            )

    def validate(self, grid: YeeGrid) -> None:
        if not grid.contains_node(self.index):
            raise FDTDError(
                f"source index {self.index} outside node grid "
                f"{grid.node_shape}"
            )
        region = grid.update_region(self.component)
        for s, i in zip(region, self.index):
            if not s.start <= i < s.stop:
                raise FDTDError(
                    f"source index {self.index} lies outside the updated "
                    f"region of {self.component} (on a boundary or beyond "
                    "the component's valid range)"
                )

    def value(self, step: int) -> float:
        return self.amplitude * self.waveform(step)

    def global_region(self, grid: YeeGrid) -> tuple[slice, ...]:
        """The driven node region, in global indices: one node."""
        return tuple(slice(i, i + 1) for i in self.index)


@dataclass(frozen=True)
class PlaneSource:
    """Additive sheet source: a whole constant-``axis`` plane of one
    component driven by the waveform — a simple plane-wave launcher
    (it radiates plane fronts toward both sides of the sheet).

    Unlike a :class:`PointSource`, the sheet usually spans *several*
    grid processes: every rank owning part of the plane injects its
    part — a per-process special computation involving more than one
    process, exercising the plan's "computations performed differently
    in the individual grid processes" beyond the single-owner case.

    The driven region is the intersection of the component's update
    region with the plane ``{axis: index}`` (boundary nodes are never
    driven; they belong to the boundary condition).
    """

    component: str
    axis: int
    index: int
    waveform: object = GaussianPulse()
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.component not in COMPONENTS:
            raise FDTDError(
                f"unknown component {self.component!r}; "
                f"expected one of {COMPONENTS}"
            )
        if not 0 <= self.axis <= 2:
            raise FDTDError(f"plane axis must be 0..2, got {self.axis}")

    def validate(self, grid: YeeGrid) -> None:
        region = grid.update_region(self.component)
        s = region[self.axis]
        if not s.start <= self.index < s.stop:
            raise FDTDError(
                f"plane index {self.index} (axis {self.axis}) lies outside "
                f"the updated range [{s.start}, {s.stop}) of "
                f"{self.component}"
            )

    def global_region(self, grid: YeeGrid) -> tuple[slice, ...]:
        """The driven node region, in global indices."""
        region = list(grid.update_region(self.component))
        region[self.axis] = slice(self.index, self.index + 1)
        return tuple(region)

    def value(self, step: int) -> float:
        return self.amplitude * self.waveform(step)


@dataclass(frozen=True)
class GaussianBallInitial:
    """Initial excitation: a Gaussian ball added to one component at t=0."""

    component: str = "ez"
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 3.0
    amplitude: float = 1.0

    def apply(self, grid: YeeGrid, fields: FieldSet) -> None:
        idx = np.indices(grid.node_shape)
        dist2 = sum((idx[a] - self.center[a]) ** 2 for a in range(3))
        fields[self.component][...] += self.amplitude * np.exp(
            -dist2 / (self.radius * self.radius)
        )
