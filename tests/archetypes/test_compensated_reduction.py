"""Compensated (Neumaier) combine mode — the paper's unexplored
'more sophisticated strategy' for the far-field reduction."""

import numpy as np
import pytest

from repro.archetypes.mesh import partials_buffer
from repro.archetypes.mesh.reduction import (
    combine_block,
    gather_stage,
    neumaier_fold,
)
from repro.errors import ArchetypeError
from repro.numerics import exact_sum
from repro.refinement import SimulatedParallelProgram
from repro.refinement.store import AddressSpace


class TestNeumaierFold:
    def test_matches_exact_on_hard_partials(self):
        # Partials that defeat a plain fold: big, tiny, -big.
        buf = np.array([[1e16], [1.0], [-1e16]])
        assert neumaier_fold(buf)[0] == 1.0
        plain = (buf[0] + buf[1]) + buf[2]
        assert plain[0] == 0.0  # the fold loses the 1.0

    def test_elementwise_over_arrays(self):
        rng = np.random.default_rng(7)
        buf = rng.normal(size=(8, 5, 3)) * 10.0 ** rng.integers(
            -8, 8, size=(8, 5, 3)
        )
        folded = neumaier_fold(buf)
        for idx in np.ndindex(5, 3):
            exact = exact_sum(buf[(slice(None), *idx)])
            assert folded[idx] == pytest.approx(exact, rel=1e-15, abs=1e-300)

    def test_single_partial(self):
        buf = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(neumaier_fold(buf), [3.0, 4.0])

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        buf = rng.normal(size=(16, 4)) * 10.0 ** rng.integers(-10, 10, (16, 4))
        a = neumaier_fold(buf)
        b = neumaier_fold(buf[::-1].copy())
        # compensated: permutation of partials changes at most ~1 ulp
        np.testing.assert_allclose(a, b, rtol=4e-16, atol=1e-300)


class TestKahanModeInPrograms:
    def run_reduction(self, values, mode):
        nranks = len(values)
        root = nranks
        stores = [
            AddressSpace({"partial": np.array([v])}, owner=r)
            for r, v in enumerate(values)
        ]
        stores.append(
            AddressSpace(
                {"buf": partials_buffer(nranks, np.zeros(1)), "total": np.zeros(1)},
                owner=root,
            )
        )
        stages = [
            gather_stage(range(nranks), "partial", "buf", root),
            combine_block("buf", "total", nranks, root, mode=mode),
        ]
        SimulatedParallelProgram(nranks + 1, stages).run(stores=stores)
        return float(stores[root]["total"][0])

    def test_kahan_mode_exactly_rounded(self):
        values = [1e16, 1.0, 1.0, -1e16]
        assert self.run_reduction(values, "kahan") == 2.0
        assert self.run_reduction(values, "fold") != 2.0

    def test_modes_agree_on_benign_data(self):
        values = [1.5, 2.25, -0.5, 4.0]  # exact in binary
        assert self.run_reduction(values, "fold") == self.run_reduction(
            values, "kahan"
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ArchetypeError, match="unknown combine mode"):
            combine_block("buf", "total", 4, 4, mode="sorted")

    def test_kahan_with_op_rejected(self):
        with pytest.raises(ArchetypeError, match="addition-only"):
            combine_block("buf", "total", 4, 4, op=np.maximum, mode="kahan")


class TestCompensatedFarField:
    def test_compensated_flag_runs_and_stays_close(self):
        from repro.apps.fdtd import (
            FDTDConfig,
            GaussianPulse,
            NTFFConfig,
            PointSource,
            VersionC,
            YeeGrid,
            build_parallel_fdtd,
        )

        grid = YeeGrid(shape=(12, 11, 10))
        config = FDTDConfig(
            grid=grid,
            steps=10,
            sources=[PointSource("ez", (6, 5, 5), GaussianPulse(delay=8, spread=3))],
        )
        ntff = NTFFConfig(gap=3)
        seq = VersionC(config, ntff).run()
        par = build_parallel_fdtd(
            config, (2, 2, 1), version="C", ntff=ntff, compensated_farfield=True
        )
        stores = par.run_simulated()
        A, F = par.host_potentials(stores)
        np.testing.assert_allclose(
            A, seq.vector_potential_A, rtol=1e-9, atol=1e-20
        )
        np.testing.assert_allclose(
            F, seq.vector_potential_F, rtol=1e-9, atol=1e-20
        )
