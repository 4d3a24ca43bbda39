"""``python -m repro explore`` CLI behaviour."""

import json

from repro.cli import main


def run_explore(argv):
    return main(["explore", *argv])


class TestBasics:
    def test_list_targets(self, capsys):
        assert run_explore(["--list"]) == 0
        out = capsys.readouterr().out
        assert "racy" in out and "e1-overlap" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_explore(["--bogus"]) == 2

    def test_unknown_strategy_is_usage_error(self):
        assert run_explore(["--strategy", "bfs"]) == 2

    def test_bad_fault_spec_is_usage_error(self):
        assert run_explore(["--faults", "explode:now"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert run_explore(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestExploreMode:
    def test_clean_target_exits_zero(self, capsys, tmp_path):
        code = run_explore(
            [
                "--target",
                "ring3",
                "--schedules",
                "50",
                "--json",
                str(tmp_path / "report.json"),
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "contract holds" in out
        data = json.loads((tmp_path / "report.json").read_text())
        assert data[0]["target"] == "ring3"
        assert data[0]["violations"] == []

    def test_walk_strategy(self, capsys, tmp_path):
        code = run_explore(
            [
                "--target",
                "prodcons",
                "--strategy",
                "walk",
                "--schedules",
                "20",
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "explore[walk]" in capsys.readouterr().out

    def test_racy_conviction_dumps_replayable_artifact(
        self, capsys, tmp_path
    ):
        code = run_explore(
            [
                "--target",
                "racy",
                "--no-fingerprints",
                "--expect-violation",
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        assert code == 0  # violation found AND replayed
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out
        artifacts = list(tmp_path.glob("racy-dfs-*.json"))
        assert artifacts
        data = json.loads(artifacts[0].read_text())
        assert data["format"] == "repro.explore.violation/v1"
        assert data["prefix"]

    def test_racy_without_expectation_exits_one(self, tmp_path):
        code = run_explore(
            [
                "--target",
                "racy",
                "--no-fingerprints",
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_expect_violation_fails_on_clean_target(self, tmp_path):
        code = run_explore(
            [
                "--target",
                "ring3",
                "--expect-violation",
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        assert code == 1


class TestSweepMode:
    def test_sweep_needs_a_fault_plan(self, capsys):
        assert run_explore(["--target", "exchange2", "--engine", "multiprocess"]) == 2
        assert "needs --faults" in capsys.readouterr().out

    def test_delay_sweep_on_a_process_engine_is_bitwise_identical(self, capsys):
        code = run_explore(
            [
                "--target",
                "exchange2",
                "--engine",
                "multiprocess",
                "--faults",
                "delay:c01#0~2",
                "--runs",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep[multiprocess] exchange2" in out
        assert "1 identical final state(s)" in out


class TestReplayMode:
    def test_replay_round_trip(self, capsys, tmp_path):
        assert (
            run_explore(
                [
                    "--target",
                    "racy",
                    "--no-fingerprints",
                    "--artifact-dir",
                    str(tmp_path),
                ]
            )
            == 1
        )
        capsys.readouterr()
        artifact = sorted(tmp_path.glob("racy-dfs-*.json"))[0]
        assert run_explore(["--replay", str(artifact)]) == 0
        assert "reproduced: yes" in capsys.readouterr().out
