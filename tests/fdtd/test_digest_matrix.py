"""Cross-commit digests: every driver and program of one small problem.

One configuration — a (12, 11, 10) grid, 9 steps, Mur walls, a
dielectric box, a ``PlaneSource`` sheet and two point sources — run by
``VersionA`` and ``VersionC(NTFFConfig(gap=2))`` and by
``build_parallel_fdtd`` at four process grids, versions A and C, overlap
off and on.  Each run is reduced to one SHA-256 over its six near-field
components (and, for Version C, the far-field potentials).  The digests
are pinned, so a change to any kernel, boundary, source or step-loop
code that moves one bit of any field fails here, on every later commit.

The near fields are bitwise the same everywhere, so every Version A row
has one digest.  A Version C digest also covers the reduced potentials,
whose summation order follows the process grid: one digest per
``pshape``.

This file holds the sequential and ``run_simulated()`` rows;
``tests/dist/test_digest_engines.py`` runs the same table on every
engine name.
"""

import hashlib

import pytest

from repro.apps.fdtd import (
    COMPONENTS,
    FDTDConfig,
    GaussianPulse,
    Material,
    MaterialGrid,
    NTFFConfig,
    PlaneSource,
    PointSource,
    RickerWavelet,
    VersionA,
    VersionC,
    YeeGrid,
    build_parallel_fdtd,
)

PSHAPES = [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)]

#: SHA-256 of the near fields (and Version C's potentials), computed
#: at the commit that introduced this file.  All Version A rows share
#: one digest; Version C has one per process grid, and the sequential
#: driver sums in the one-rank order.
DIGEST_A = "83d54a3bbde5e87257ad8a7c60053e87334f76c3f2580fcc2d78c9da6159b03f"
DIGEST_C = {
    (1, 1, 1): "5beebac079d337017c23bcc35c234dec8dc542897e05762148b8144c7706eb4f",
    (2, 1, 1): "52e0984bf1d60c4d17f748acf18fe7af9feff3c4cd32eca51406b18e40e96d4c",
    (1, 2, 2): "f0f72a1bf2a159470e42dc271cddda3523940aefc97f70543381efbb1d4f70d3",
    (2, 2, 2): "3a2669ca6f64f058bf32d1881748e085ef5fe380d9994d3081ed076065321b19",
}


def expected_digest(version, pshape=(1, 1, 1)):
    """The pinned digest of one row (``pshape`` matters for C only)."""
    return DIGEST_A if version == "A" else DIGEST_C[pshape]


def digest_config() -> FDTDConfig:
    grid = YeeGrid(shape=(12, 11, 10))
    materials = MaterialGrid(grid).add_box(
        (4, 3, 3), (8, 7, 6), Material(eps_r=2.5, sigma_e=0.02)
    )
    return FDTDConfig(
        grid=grid,
        steps=9,
        boundary="mur1",
        materials=materials,
        sources=[
            PlaneSource("ez", axis=0, index=3, waveform=GaussianPulse(4, 2)),
            PointSource("ex", (6, 5, 4), RickerWavelet(delay=5, spread=2)),
            PointSource("ey", (9, 2, 7), GaussianPulse(delay=3, spread=1.5)),
        ],
    )


def digest_ntff() -> NTFFConfig:
    return NTFFConfig(gap=2)


def digest_of(fields, potentials=None) -> str:
    """SHA-256 over the named near fields, then the potentials."""
    h = hashlib.sha256()
    arrays = [(c, fields[c]) for c in COMPONENTS]
    if potentials is not None:
        arrays += list(zip(("ffA_total", "ffF_total"), potentials))
    for name, arr in arrays:
        h.update(name.encode())
        h.update(str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def sequential_digest(version: str) -> str:
    config = digest_config()
    if version == "A":
        return digest_of(VersionA(config).run().fields)
    run = VersionC(config, digest_ntff()).run()
    return digest_of(
        run.fields, (run.vector_potential_A, run.vector_potential_F)
    )


def build(version: str, pshape, overlap: bool):
    return build_parallel_fdtd(
        digest_config(),
        pshape,
        version=version,
        ntff=digest_ntff() if version == "C" else None,
        overlap=overlap,
    )


def stores_digest(par, stores) -> str:
    potentials = par.host_potentials(stores) if par.version == "C" else None
    return digest_of(par.host_fields(stores), potentials)


@pytest.mark.parametrize("version", ["A", "C"])
def test_sequential_digest_is_pinned(version):
    assert sequential_digest(version) == expected_digest(version)


@pytest.mark.parametrize("overlap", [False, True], ids=["plain", "overlap"])
@pytest.mark.parametrize("pshape", PSHAPES, ids=lambda p: "x".join(map(str, p)))
@pytest.mark.parametrize("version", ["A", "C"])
def test_simulated_digest_is_pinned(version, pshape, overlap):
    par = build(version, pshape, overlap)
    assert stores_digest(par, par.run_simulated()) == expected_digest(
        version, pshape
    )
