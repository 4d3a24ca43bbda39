"""The FDTD electromagnetics application (paper section 4.1).

A 3-D finite-difference time-domain code modelling transient
electromagnetic scattering from objects of arbitrary shape and
composition (frequency-independent dielectric and magnetic materials),
in the two versions the paper parallelized:

* **Version A** — near-field calculations only
  (:class:`~repro.apps.fdtd.version_a.VersionA`);
* **Version C** — near-field plus far-field (radiation vector
  potentials via a near-to-far-field transformation)
  (:class:`~repro.apps.fdtd.version_c.VersionC`);

plus their mesh-archetype parallelizations
(:func:`~repro.apps.fdtd.parallel.build_parallel_fdtd`), which produce
both the sequential simulated-parallel programs and, mechanically,
their message-passing forms.
"""

from repro.apps.fdtd.constants import C0, EPS0, ETA0, MU0
from repro.apps.fdtd.grid import (
    COMPONENTS,
    E_COMPONENTS,
    H_COMPONENTS,
    FieldSet,
    YeeGrid,
)
from repro.apps.fdtd.materials import VACUUM, CoefficientSet, Material, MaterialGrid
from repro.apps.fdtd.sources import (
    GaussianBallInitial,
    GaussianPulse,
    PlaneSource,
    PointSource,
    RickerWavelet,
    SinusoidSource,
)
from repro.apps.fdtd.boundary import Mur1
from repro.apps.fdtd.update import update_e, update_h
from repro.apps.fdtd.ntff import NTFFAccumulator, NTFFConfig, default_directions
from repro.apps.fdtd.diagnostics import Probe, field_energy
from repro.apps.fdtd.farfield import (
    far_field_energy,
    far_field_signal,
    rcs_proxy,
    spherical_basis,
)
from repro.apps.fdtd.version_a import FDTDConfig, SequentialResult, VersionA
from repro.apps.fdtd.version_c import FarFieldResult, VersionC
from repro.apps.fdtd.parallel import ParallelFDTD, build_parallel_fdtd

__all__ = [
    "C0",
    "EPS0",
    "MU0",
    "ETA0",
    "YeeGrid",
    "FieldSet",
    "COMPONENTS",
    "E_COMPONENTS",
    "H_COMPONENTS",
    "Material",
    "MaterialGrid",
    "CoefficientSet",
    "VACUUM",
    "GaussianPulse",
    "RickerWavelet",
    "SinusoidSource",
    "PointSource",
    "PlaneSource",
    "GaussianBallInitial",
    "Mur1",
    "update_e",
    "update_h",
    "NTFFConfig",
    "NTFFAccumulator",
    "default_directions",
    "Probe",
    "field_energy",
    "far_field_signal",
    "far_field_energy",
    "rcs_proxy",
    "spherical_basis",
    "FDTDConfig",
    "SequentialResult",
    "VersionA",
    "FarFieldResult",
    "VersionC",
    "ParallelFDTD",
    "build_parallel_fdtd",
]
