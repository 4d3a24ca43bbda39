"""DFS / random-walk exploration: determinacy, pruning, conviction."""

import pytest

from repro.explore import (
    build_target,
    explore_dfs,
    explore_walk,
    load_artifact,
    parse_fault_plan,
    replay_artifact,
    save_artifact,
)


class TestDeterminateTargets:
    @pytest.mark.parametrize(
        "name", ["exchange2", "ring3", "fanin", "prodcons"]
    )
    def test_dfs_single_digest_no_violations(self, name):
        report = explore_dfs(
            build_target(name), max_schedules=120, target=name
        )
        assert report.ok, [v.describe() for v in report.violations]
        assert len(report.digests) == 1
        assert report.schedules >= 1
        assert report.baseline_digest in report.digests

    def test_walk_single_digest(self):
        report = explore_walk(
            build_target("ring3"), n_schedules=40, target="ring3"
        )
        assert report.ok
        assert len(report.digests) == 1

    def test_walk_dedupes_schedules(self):
        # The exchange2 space is tiny; the walk must terminate at the
        # attempts bound without double-counting schedules.
        report = explore_walk(
            build_target("exchange2"), n_schedules=50, target="exchange2"
        )
        assert 1 <= report.schedules < 50

    def test_full_frontier_coverage_on_ring(self):
        report = explore_dfs(
            build_target("ring3"), max_schedules=120, target="ring3"
        )
        assert report.frontier_width == 3
        assert report.frontier_coverage == 1.0


class TestPruning:
    def test_fingerprint_pruning_reduces_runs(self):
        pruned = explore_dfs(
            build_target("pipeline"), max_schedules=60, target="pipeline"
        )
        assert pruned.pruned_fingerprint > 0
        assert pruned.states_fingerprinted > 0

    def test_pruned_search_finds_same_digest_as_unpruned(self):
        full = explore_dfs(
            build_target("ring3"),
            max_schedules=500,
            fingerprints=False,
            target="ring3",
        )
        pruned = explore_dfs(
            build_target("ring3"), max_schedules=500, target="ring3"
        )
        assert set(full.digests) == set(pruned.digests)
        # pruning must not lose the only final state, only work
        assert pruned.runs <= full.runs

    @pytest.mark.parametrize("name", ["ring3", "fanin"])
    def test_unpruned_dfs_visits_every_interleaving(
        self, name, monkeypatch
    ):
        # Without fingerprints the explorer's DFS is the same walk as
        # exhaustive enumeration: the very same schedule set.
        from repro.explore.report import ExplorationReport
        from repro.theory import enumerate_interleavings

        seen = []
        record = ExplorationReport.record

        def spy(report, outcome):
            seen.append(outcome.schedule)
            record(report, outcome)

        monkeypatch.setattr(ExplorationReport, "record", spy)
        report = explore_dfs(
            build_target(name),
            max_schedules=10_000,
            fingerprints=False,
            target=name,
        )
        full = enumerate_interleavings(build_target(name)())
        assert report.schedules == full.interleavings == len(seen)
        assert set(seen) == set(full.schedules)


class TestRacyConviction:
    def test_dfs_convicts_within_bounded_search(self):
        report = explore_dfs(
            build_target("racy"),
            max_schedules=200,
            fingerprints=False,  # closure state is invisible to hashing
            target="racy",
        )
        assert not report.ok
        assert len(report.digests) > 1
        violation = report.violations[0]
        assert violation.kind == "nondeterminate"
        assert len(violation.prefix) <= len(violation.schedule)

    def test_minimal_prefix_replays_deterministically(self, tmp_path):
        report = explore_dfs(
            build_target("racy"),
            max_schedules=200,
            fingerprints=False,
            target="racy",
        )
        violation = report.violations[0]
        path = save_artifact(violation, tmp_path / "racy.json")
        reproduced, outcome = replay_artifact(load_artifact(path))
        assert reproduced
        # the artifact's digest claim matches the replayed run
        assert outcome.digest == violation.got_digest

    def test_walk_also_convicts(self):
        report = explore_walk(
            build_target("racy"), n_schedules=60, seed=3, target="racy"
        )
        assert not report.ok


class TestFaultedExploration:
    def test_kill_plan_yields_identical_or_clean_crash(self):
        plan = parse_fault_plan("kill:0@4")
        report = explore_dfs(
            build_target("prodcons"),
            max_schedules=100,
            plan=plan,
            max_steps=200,
            target="prodcons",
        )
        assert report.ok, [v.describe() for v in report.violations]
        # the action count is rank-local, so this kill fires on every
        # schedule — each one must crash cleanly, never hang or corrupt
        assert report.crashes == report.schedules
        assert report.bounds == 0 and report.deadlocks == 0

    def test_delay_plan_stays_bitwise_identical(self):
        plan = parse_fault_plan("delay:ring0#0~3")
        report = explore_dfs(
            build_target("ring3"),
            max_schedules=100,
            plan=plan,
            target="ring3",
        )
        assert report.ok
        assert len(report.digests) == 1
        assert report.baseline_digest in report.digests

    def test_unexpected_crash_is_a_violation(self):
        # A crash with NO kill plan must be flagged, not tolerated:
        # build a system whose body raises on its own.
        from repro.runtime import ProcessSpec, System

        def bad_body(ctx):
            ctx.step("boom")
            raise RuntimeError("genuine bug")

        def factory():
            return System([ProcessSpec(0, bad_body)])

        report = explore_dfs(factory, max_schedules=10, target="bad")
        assert not report.ok
        assert report.violations[0].kind == "crash"


class TestReportExports:
    def test_to_dict_round_trip_fields(self):
        report = explore_dfs(
            build_target("ring3"), max_schedules=50, target="ring3"
        )
        data = report.to_dict()
        assert data["target"] == "ring3"
        assert data["distinct_digests"] == 1
        assert data["schedules"] == report.schedules
        assert data["violations"] == []
