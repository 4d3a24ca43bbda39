"""Instrumented runs end to end: matrices match the wiring, results
match the un-instrumented run, and the default path records nothing."""

import numpy as np

from repro.obs import Observer
from repro.runtime import (
    Collectives,
    Communicator,
    CooperativeEngine,
    ProcessSpec,
    System,
    ThreadedEngine,
    make_full_mesh_channels,
)
from repro.util import payload_nbytes


def ring_system(nprocs=3, rounds=2):
    """Each rank sends ``rounds`` floats to its right neighbour."""

    def body(ctx):
        right = (ctx.rank + 1) % ctx.nprocs
        left = (ctx.rank - 1) % ctx.nprocs
        got = []
        for i in range(rounds):
            ctx.send(f"r{ctx.rank}", float(ctx.rank * 100 + i))
            got.append(ctx.recv(f"r{left}"))
        ctx.store["got"] = got
        return right

    system = System([ProcessSpec(r, body) for r in range(nprocs)])
    for r in range(nprocs):
        system.add_channel(f"r{r}", r, (r + 1) % nprocs)
    return system


class TestCommunicationMatrix:
    def test_matrix_matches_ring_wiring(self):
        result = ThreadedEngine(observe=True).run(ring_system(nprocs=3, rounds=2))
        report = result.report
        expected = [[0, 2, 0], [0, 0, 2], [2, 0, 0]]
        assert report.message_matrix() == expected
        # Every message is one float; payload accounting matches.
        per_msg = payload_nbytes(0.0)
        assert report.bytes_matrix() == [
            [n * per_msg for n in row] for row in expected
        ]
        assert report.total_messages() == 6

    def test_channel_rows_complete(self):
        result = ThreadedEngine(observe=True).run(ring_system(nprocs=3, rounds=2))
        chans = {c.name: c for c in result.report.channels}
        assert set(chans) == {"r0", "r1", "r2"}
        for c in chans.values():
            assert c.sends == c.receives == 2
            assert 1 <= c.queue_hwm <= 2

    def test_cooperative_engine_same_matrix(self):
        threaded = ThreadedEngine(observe=True).run(ring_system())
        coop = CooperativeEngine(observe=True).run(ring_system())
        assert coop.report.message_matrix() == threaded.report.message_matrix()
        assert coop.report.bytes_matrix() == threaded.report.bytes_matrix()

    def test_process_times_cover_all_ranks(self):
        result = ThreadedEngine(observe=True).run(ring_system(nprocs=3))
        report = result.report
        assert [p.rank for p in report.processes] == [0, 1, 2]
        for p in report.processes:
            assert p.wall >= 0.0
            assert 0.0 <= p.blocked
            assert p.compute >= 0.0


class TestOffByDefault:
    def test_no_report_without_observe(self):
        result = ThreadedEngine().run(ring_system())
        assert result.report is None
        result = CooperativeEngine().run(ring_system())
        assert result.report is None

    def test_results_identical_with_and_without(self):
        bare = ThreadedEngine().run(ring_system())
        observed = ThreadedEngine(observe=True).run(ring_system())
        assert bare.stores == observed.stores
        assert bare.returns == observed.returns

    def test_queue_hwm_tracked_even_unobserved(self):
        # The channel high-water mark is a couple of integer compares in
        # send(); it is always on and surfaces through RunResult.
        result = ThreadedEngine().run(ring_system(rounds=3))
        assert set(result.channel_hwm) == {"r0", "r1", "r2"}
        assert all(1 <= v <= 3 for v in result.channel_hwm.values())


class TestObserverInstance:
    def test_explicit_observer_is_used(self):
        obs = Observer()
        result = ThreadedEngine(observe=obs).run(ring_system())
        assert result.report is not None
        assert [p.rank for p in result.report.processes] == [0, 1, 2]

    def test_reused_observer_reports_each_run_separately(self):
        def body(ctx):
            return Collectives(Communicator(ctx)).broadcast(ctx.rank * 10)

        system = System([ProcessSpec(r, body) for r in range(3)])
        make_full_mesh_channels(system)
        obs = Observer()
        engines = [ThreadedEngine(observe=obs)] * 2
        engines.append(CooperativeEngine(observe=obs))
        for engine in engines:
            report = engine.run(system).report
            named = [s for s in report.spans if s.cat != "blocked"]
            assert sorted((s.rank, s.name) for s in named) == [
                (r, "collective:broadcast") for r in range(3)
            ]
            assert [p.rank for p in report.processes] == [0, 1, 2]


class TestModelValidation:
    def test_fdtd_measured_traffic_matches_cost_model(self):
        from repro.apps.fdtd import (
            FDTDConfig,
            GaussianPulse,
            PointSource,
            YeeGrid,
            build_parallel_fdtd,
        )
        from repro.obs import fdtd_model_comparison

        config = FDTDConfig(
            grid=YeeGrid(shape=(9, 8, 7)),
            steps=4,
            sources=[
                PointSource("ez", (4, 4, 3), GaussianPulse(delay=4, spread=2))
            ],
        )
        par = build_parallel_fdtd(config, (2, 1, 1), version="A")
        result = ThreadedEngine(observe=True).run(par.to_parallel())
        comparison = fdtd_model_comparison(par, result.report)
        assert comparison.agreement(), "\n" + comparison.table()

    def test_stage_spans_recorded(self):
        from repro.apps.fdtd import (
            FDTDConfig,
            GaussianPulse,
            PointSource,
            YeeGrid,
            build_parallel_fdtd,
        )

        config = FDTDConfig(
            grid=YeeGrid(shape=(9, 8, 7)),
            steps=2,
            sources=[
                PointSource("ez", (4, 4, 3), GaussianPulse(delay=4, spread=2))
            ],
        )
        par = build_parallel_fdtd(config, (2, 1, 1), version="A")
        result = ThreadedEngine(observe=True).run(par.to_parallel())
        phases = {name for name, _, _ in result.report.phase_totals()}
        assert "E-phase" in phases
        assert "H-phase" in phases
        assert any(name.startswith("exchange:") for name in phases)
        assert any(name.startswith("collect:") for name in phases)
