"""Fixtures shared by the whole test tree."""

import functools

import pytest

from repro.cli import EXPERIMENTS


@pytest.fixture(scope="session")
def record():
    """``record(name)``: the record of ``python -m repro <name>``,
    computed once per session on first use."""
    return functools.cache(lambda name: EXPERIMENTS[name][0]())
