"""Cross-validation: the cost model's schedule is the implementation's.

The performance model is a *substitution* for hardware, but its message
counts must not be estimates: they are cross-checked here against the
channel statistics of an actual transformed FDTD run.  If the model and
the implementation ever disagree about how many messages a step moves,
the Table 1 / Figure 2 substitutions lose their grounding.
"""

import numpy as np
import pytest

from repro.apps.fdtd import (
    FDTDConfig,
    GaussianPulse,
    PointSource,
    YeeGrid,
    build_parallel_fdtd,
)
from repro.archetypes.mesh import BlockDecomposition
from repro.perfmodel import exchange_comm_volume, fdtd_step_costs
from repro.runtime import ThreadedEngine


@pytest.fixture(scope="module")
def run_and_model():
    grid = YeeGrid(shape=(10, 9, 8))
    config = FDTDConfig(
        grid=grid,
        steps=5,
        sources=[PointSource("ez", (5, 4, 4), GaussianPulse(delay=6, spread=2))],
    )
    pshape = (2, 2, 1)
    par = build_parallel_fdtd(config, pshape, version="A")
    result = ThreadedEngine().run(par.to_parallel())
    decomp = BlockDecomposition(grid.node_shape, pshape, ghost=1)
    return config, par, result, decomp


class TestMessageCounts:
    def test_exchange_messages_match_model(self, run_and_model):
        config, par, result, decomp = run_and_model
        # Neighbour (dx_i_j with both i, j grid ranks) channels carry the
        # boundary-exchange traffic only.
        grid_ranks = set(range(decomp.nprocs))
        exchange_msgs = sum(
            sends
            for name, (sends, _) in result.channel_stats.items()
            if int(name.split("_")[1]) in grid_ranks
            and int(name.split("_")[2]) in grid_ranks
        )
        model = fdtd_step_costs(config.grid.shape, decomp, 4, version="A")
        assert exchange_msgs == config.steps * model.exchange.total_messages

    def test_every_send_received(self, run_and_model):
        _, _, result, _ = run_and_model
        for name, (sends, receives) in result.channel_stats.items():
            assert sends == receives, name

    def test_host_channel_messages(self, run_and_model):
        config, par, result, decomp = run_and_model
        host = par.host
        # Collect only (version A, no reduce): 18 variables collected
        # (6 fields + 12 coefficient arrays are NOT collected — only the
        # six field components), one message per grid rank per variable.
        host_msgs = sum(
            sends
            for name, (sends, _) in result.channel_stats.items()
            if int(name.split("_")[2]) == host
        )
        assert host_msgs == decomp.nprocs * 6

    def test_per_channel_symmetry_of_interior_ranks(self, run_and_model):
        config, par, result, decomp = run_and_model
        # In a 2x2 grid every rank has exactly 2 neighbours; per step it
        # sends each one the 2 components of the one phase whose stencil
        # reads across that face in that direction (H toward +, E
        # toward -): 2 messages.
        for rank in range(decomp.nprocs):
            for axis in range(3):
                for direction in (-1, 1):
                    nb = decomp.pgrid.neighbor(rank, axis, direction)
                    if nb is None:
                        continue
                    sends, _ = result.channel_stats[f"dx_{rank}_{nb}"]
                    assert sends == config.steps * 2


class TestBytesOrderOfMagnitude:
    def test_model_bytes_track_strip_sizes(self):
        # The modeled byte count equals exactly the ghost-strip sizes the
        # exchange op would copy.
        from repro.archetypes.mesh import boundary_exchange_op

        decomp = BlockDecomposition((12, 10, 8), (2, 2, 1), ghost=1)
        vol = exchange_comm_volume(decomp, 1, 8)  # one var, 8-byte words
        op = boundary_exchange_op(decomp, "u")
        total_elems = 0
        for a in op.assignments:
            region_shape = []
            for s, extent in zip(
                a.src.region, decomp.local_shape(a.src.proc)
            ):
                region_shape.append(s.stop - s.start)
            total_elems += int(np.prod(region_shape))
        assert vol.total_bytes == total_elems * 8


class TestByteCounts:
    def test_exchange_bytes_match_model(self, run_and_model):
        """The channels' measured payload bytes equal the model's byte
        count (float64 words) plus the per-message stage-index framing."""
        config, par, result, decomp = run_and_model
        grid_ranks = set(range(decomp.nprocs))

        def is_grid_pair(name):
            _, a, b = name.split("_")
            return int(a) in grid_ranks and int(b) in grid_ranks

        actual = sum(
            b for name, b in result.channel_bytes.items() if is_grid_pair(name)
        )
        model = fdtd_step_costs(config.grid.shape, decomp, 8, version="A")
        payload = config.steps * model.exchange.total_bytes
        framing = config.steps * model.exchange.total_messages * 8  # stage int
        assert actual == payload + framing

    def test_payload_nbytes_examples(self):
        import numpy as np

        from repro.util import payload_nbytes

        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes({"stage": 3, "values": [np.zeros(4)]}) == 8 + 32
        assert payload_nbytes([1, 2.5, None, True]) == 8 + 8 + 0 + 1
        assert payload_nbytes("abc") == 3
