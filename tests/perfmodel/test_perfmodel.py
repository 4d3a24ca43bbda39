"""Performance-model tests: counts, machine arithmetic, paper shapes."""

import numpy as np
import pytest

from repro.archetypes.mesh import BlockDecomposition
from repro.errors import ModelError
from repro.perfmodel import (
    IBM_SP2,
    SUN_ETHERNET,
    MachineModel,
    estimate_parallel_time,
    estimate_sequential_time,
    exchange_comm_volume,
    fdtd_step_costs,
    figure2_report,
    speedup_series,
    table1_report,
)
from repro.perfmodel.costmodel import (
    surface_points,
    surface_points_per_rank,
)


class TestMachineModel:
    def test_primitive_costs(self):
        m = MachineModel("m", flop_rate=1e6, latency=1e-3, bandwidth=1e6)
        assert m.compute_time(2e6) == 2.0
        assert m.message_time(1e6) == pytest.approx(1.001)

    def test_shared_vs_switched_round(self):
        shared = MachineModel("s", 1e6, 1e-3, 1e6, shared_network=True)
        switched = MachineModel("w", 1e6, 1e-3, 1e6, shared_network=False)
        t_shared = shared.transfer_round_time(10, 1e6)
        t_switched = switched.transfer_round_time(10, 1e6, parallel_pairs=10)
        assert t_shared == pytest.approx(10 * 1e-3 + 1.0)
        assert t_switched == pytest.approx(t_shared / 10)

    def test_invalid_parameters(self):
        with pytest.raises(ModelError):
            MachineModel("bad", flop_rate=0, latency=1e-3, bandwidth=1e6)

    def test_presets_describe(self):
        assert "shared" in SUN_ETHERNET.describe()
        assert "switched" in IBM_SP2.describe()


class TestCommVolume:
    def test_single_rank_no_traffic(self):
        d = BlockDecomposition((10, 10, 10), (1, 1, 1), ghost=1)
        vol = exchange_comm_volume(d, 3, 4)
        assert vol.total_messages == 0 and vol.total_bytes == 0

    def test_two_rank_split_counts(self):
        d = BlockDecomposition((10, 10, 10), (2, 1, 1), ghost=1)
        vol = exchange_comm_volume(d, 3, 4)
        # each rank: 1 face x 3 vars = 3 messages
        assert vol.total_messages == 6
        assert vol.max_rank_messages == 3
        # face strip: ghost(1) x 10 x 10 nodes x 4 bytes x 3 vars
        assert vol.max_rank_bytes == 1 * 10 * 10 * 4 * 3

    def test_more_ranks_more_total_traffic(self):
        d2 = BlockDecomposition((12, 12, 12), (2, 1, 1), ghost=1)
        d8 = BlockDecomposition((12, 12, 12), (2, 2, 2), ghost=1)
        v2 = exchange_comm_volume(d2, 3, 4)
        v8 = exchange_comm_volume(d8, 3, 4)
        assert v8.total_bytes > v2.total_bytes
        assert v8.total_messages > v2.total_messages


class TestSurfacePoints:
    def test_matches_ntff_accumulator(self):
        from repro.apps.fdtd import NTFFAccumulator, NTFFConfig, YeeGrid

        grid = YeeGrid(shape=(12, 11, 10))
        acc = NTFFAccumulator(grid, NTFFConfig(gap=3), steps=1)
        assert surface_points((12, 11, 10), 3) == acc.npoints

    def test_per_rank_partition(self):
        from repro.apps.fdtd import YeeGrid

        grid_cells = (12, 11, 10)
        node_shape = tuple(n + 1 for n in grid_cells)
        for pshape in [(2, 1, 1), (2, 2, 1), (2, 2, 2)]:
            d = BlockDecomposition(node_shape, pshape, ghost=1)
            per_rank = surface_points_per_rank(grid_cells, 3, d)
            assert sum(per_rank) == surface_points(grid_cells, 3)

    def test_gap_too_large_gives_zero(self):
        assert surface_points((6, 6, 6), 3) == 0


class TestStepCosts:
    def test_version_a_has_no_surface_points(self):
        d = BlockDecomposition((13, 13, 13), (2, 2, 1), ghost=1)
        costs = fdtd_step_costs((12, 12, 12), d, 4, version="A")
        assert costs.max_rank_surface_points == 0

    def test_version_c_adds_flops(self):
        d = BlockDecomposition((13, 13, 13), (2, 2, 1), ghost=1)
        a = fdtd_step_costs((12, 12, 12), d, 4, version="A")
        c = fdtd_step_costs((12, 12, 12), d, 4, version="C")
        assert c.max_rank_flops() > a.max_rank_flops()

    def test_exchange_counts_both_phases(self):
        d = BlockDecomposition((13, 13, 13), (2, 1, 1), ghost=1)
        from repro.apps.fdtd.update import E_GHOST_FACES, H_GHOST_FACES

        costs = fdtd_step_costs((12, 12, 12), d, 4)
        h = exchange_comm_volume(d, 3, 4, faces=H_GHOST_FACES)
        e = exchange_comm_volume(d, 3, 4, faces=E_GHOST_FACES)
        assert costs.exchange == h + e
        # two of three components, one of two directions per face
        assert 3 * costs.exchange.total_messages == 2 * (
            exchange_comm_volume(d, 3, 4).total_messages
        )

    def test_faces_count_per_declared_face(self):
        d = BlockDecomposition((10, 10, 10), (2, 1, 1), ghost=1)
        vol = exchange_comm_volume(
            d, 3, 4, faces={("a", 0, -1), ("b", 0, -1), ("a", 1, 1)}
        )
        # only rank 1 has a low-x ghost face; nobody has a y neighbour
        assert vol.total_messages == vol.max_rank_messages == 2
        assert vol.total_bytes == vol.max_rank_bytes == 2 * 10 * 10 * 4


class TestShapes:
    """The qualitative claims of Table 1 and Figure 2."""

    def test_figure2_speedup_monotone_and_sublinear(self):
        series = speedup_series(
            (66, 66, 66), 512, IBM_SP2, (1, 2, 4, 8, 16, 32), "A"
        )
        speedups = [s for _, _, s in series]
        # monotone increasing over this range...
        assert all(b > a for a, b in zip(speedups, speedups[1:]))
        # ...but sub-linear (never above perfect)
        for (p, _, s) in series:
            assert s <= p + 1e-9
        # and usefully parallel by P=8 (the paper's 'reasonably efficient')
        assert dict((p, s) for p, _, s in series)[8] > 4.0

    def test_figure2_efficiency_declines(self):
        series = speedup_series(
            (66, 66, 66), 512, IBM_SP2, (2, 8, 32), "A"
        )
        eff = [s / p for p, _, s in series]
        assert eff[0] > eff[1] > eff[2]

    def test_table1_speedup_positive_but_modest(self):
        series = speedup_series(
            (33, 33, 33), 128, SUN_ETHERNET, (2, 4), "C"
        )
        for p, _, s in series:
            assert 1.0 < s < p  # wins, sub-linearly

    def test_table1_flattens_on_shared_ethernet(self):
        series = dict(
            (p, s)
            for p, _, s in speedup_series(
                (33, 33, 33), 128, SUN_ETHERNET, (2, 4, 16), "C"
            )
        )
        # Efficiency collapses by P=16 on the shared medium.
        assert series[16] / 16 < 0.25

    def test_version_a_on_sp_beats_version_c_on_suns(self):
        # The cross-configuration 'who wins' of the paper's two results.
        sp = dict(
            (p, s)
            for p, _, s in speedup_series((66, 66, 66), 512, IBM_SP2, (4,), "A")
        )
        suns = dict(
            (p, s)
            for p, _, s in speedup_series(
                (33, 33, 33), 128, SUN_ETHERNET, (4,), "C"
            )
        )
        assert sp[4] > suns[4]

    def test_larger_grid_scales_better(self):
        small = speedup_series((33, 33, 33), 128, IBM_SP2, (16,), "A")[0][2]
        large = speedup_series((66, 66, 66), 128, IBM_SP2, (16,), "A")[0][2]
        assert large > small


class TestReports:
    def test_table1_report_rows(self):
        text = table1_report().render()
        assert "Sequential" in text
        assert "Parallel, P = 2" in text
        assert "Speedup" in text

    def test_figure2_report_panels(self):
        table, curve = figure2_report()
        text = table.render()
        assert "Time actual" in text
        assert "Speedup perfect" in text
        assert "Processors" in text
        assert "*" in curve  # the ASCII curve

    def test_estimates_validate_inputs(self):
        with pytest.raises(ModelError):
            estimate_parallel_time((8, 8, 8), 10, 0, IBM_SP2)

    def test_sequential_version_c_slower_than_a(self):
        a = estimate_sequential_time((33, 33, 33), 128, SUN_ETHERNET, "A")
        c = estimate_sequential_time((33, 33, 33), 128, SUN_ETHERNET, "C")
        assert c > a
