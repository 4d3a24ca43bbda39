"""The pinned cross-commit digests on every engine name.

``tests/fdtd/test_digest_matrix.py`` pins one digest per version and
process grid and checks the sequential drivers and ``run_simulated()``
against them; here the same 16 programs (versions A and C, four
``pshape``s, overlap off and on) run on the four engines.  One engine
per name serves all of its rows, so the process engines also run warm.
"""

import pytest

from repro.runtime import ENGINE_NAMES, make_engine
from tests.fdtd.test_digest_matrix import (
    PSHAPES,
    build,
    expected_digest,
    stores_digest,
)


@pytest.fixture(scope="module", params=ENGINE_NAMES)
def engine(request):
    made = make_engine(request.param)
    yield made
    getattr(made, "close", lambda: None)()


@pytest.mark.parametrize("overlap", [False, True], ids=["plain", "overlap"])
@pytest.mark.parametrize("pshape", PSHAPES, ids=lambda p: "x".join(map(str, p)))
@pytest.mark.parametrize("version", ["A", "C"])
def test_engine_digest_is_pinned(engine, version, pshape, overlap):
    par = build(version, pshape, overlap)
    result = engine.run(par.to_parallel())
    assert stores_digest(par, result.stores) == expected_digest(version, pshape)
