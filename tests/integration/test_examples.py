"""The example scripts must run and report the paper's findings."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert out.count("IDENTICAL") == 2


def test_heat_diffusion():
    out = run_example("heat_diffusion.py")
    assert "simulated-parallel field vs sequential: IDENTICAL" in out
    assert "message-passing field vs simulated: IDENTICAL" in out
    assert "(equal)" in out  # residual reductions matched exactly


def test_determinacy_lab():
    out = run_example("determinacy_lab.py")
    assert "NOT determinate" in out  # all four violations detected
    assert out.count("NOT determinate") == 4
    assert "DETERMINATE" in out  # the conforming baseline


@pytest.mark.slow
def test_fdtd_scattering():
    out = run_example("fdtd_scattering.py")
    assert "near field, simulated vs sequential : IDENTICAL" in out
    assert "REORDERED" in out
    assert out.count("IDENTICAL (near + far)") == 2


def test_archetype_gallery():
    out = run_example("archetype_gallery.py")
    assert "simulated == sequential, parallel == simulated" in out
    assert "fused wins at 2 items, pipelined at 128" in out
    assert "mergesort over 8 processes: correct" in out
    assert "divide-conquer gives 1 distinct value(s)" in out


def test_mpi_flavored():
    out = run_example("mpi_flavored.py")
    assert "all equal: True" in out
    assert "DETERMINATE" in out


def test_scaling_study():
    out = run_example("scaling_study.py")
    assert "isoefficiency" in out
    assert "strong scaling" in out
