"""End-to-end tests of the experiment runners (``python -m repro ...``)."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestExperimentRunners:
    """Each command's verdict and headline claim, on its record."""

    def test_e1_reports_identical(self, record):
        rec = record("e1")
        assert rec.ok
        cells = [c for row in rec.tables["grids"].rows for c in row[1:]]
        assert cells == ["identical"] * 10

    def test_table1_rows(self, record):
        rec = record("table1")
        assert rec.ok
        labels = [row[0] for row in rec.tables["table1"].rows]
        assert "Sequential" in labels and "Parallel, P = 4" in labels

    def test_figure2_panels(self, record):
        rec = record("figure2")
        assert rec.ok
        assert "Speedup actual" in rec.tables["figure2"].headers

    def test_theorem1(self, record):
        rec = record("theorem1")
        assert rec.ok
        assert rec.values["stencil_ring"].determinate
        assert not any(r.determinate for r in rec.values["violations"].values())
        f1, f2 = rec.values["foata"]
        assert f1 == f2 and f1.depth == 2  # the critical path

    def test_figure1_traces(self, record):
        rec = record("figure1")
        assert rec.ok
        for trace in rec.values["traces"]:
            assert {"send", "recv"} <= {e.kind for e in trace.events}

    def test_effort_table(self, record):
        rec = record("effort")
        assert rec.ok
        labels = [row[0] for row in rec.tables["metrics"].rows]
        assert [label[:9] for label in labels] == ["Version A", "Version C"]

    def test_ablations(self, record):
        rec = record("ablations")
        assert rec.ok
        assert "circular wait" in rec.values["a1"]["diagnosis"]
        assert {"a2", "a2_substrate", "a3", "a4"} <= rec.tables.keys()

    def test_rcs(self, record):
        rec = record("rcs")
        assert rec.ok
        rows = rec.tables["directions"].rows
        assert rows[1][0] == "-x backscatter"
        # the +z direction sits in the z-dipole's radiation null
        assert rows[3][1] < 0.2 * max(row[1] for row in rows[:3])


class TestStatsCommand:
    def test_stats_e1_summary_and_exports(self, tmp_path, capsys):
        import json

        code = main(["stats", "e1", "--pshape", "2x1x1", "--outdir", str(tmp_path)])
        text = capsys.readouterr().out
        assert code == 0
        # Per-process wall-time split.
        assert "compute ms" in text and "blocked ms" in text
        # Per-channel traffic with queue high-water mark.
        assert "queue hwm" in text and "dx_0_1" in text
        # Rank x rank matrices and model agreement.
        assert "communication matrix (messages)" in text
        assert "communication matrix (bytes)" in text
        assert "agreement: exact" in text
        # Valid Chrome trace + JSONL written.
        trace = json.loads(
            (tmp_path / "stats_e1_2x1x1_threaded.trace.json").read_text()
        )
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        jsonl = (tmp_path / "stats_e1_2x1x1_threaded.jsonl").read_text()
        for line in jsonl.splitlines():
            json.loads(line)

    def test_stats_bench_baseline(self, tmp_path):
        import json

        bench_file = tmp_path / "BENCH_obs.json"
        argv = [
            "stats",
            "e1",
            "--pshape",
            "2x1x1",
            "--outdir",
            str(tmp_path),
            "--bench",
            str(bench_file),
        ]
        # The per-variable message model does not describe the combined
        # split exchanges, so --overlap records no comparison rows.
        for extra, compared in ([], True), (["--overlap"], False):
            assert main(argv + extra) == 0
            bench = json.loads(bench_file.read_text())
            assert bench["model_agreement"] is True
            assert bool(bench["model_comparison"]) is compared
            assert bench["total_messages"] > 0
            assert all(
                row["wall_s"] >= row["blocked_s"] >= 0.0
                for row in bench["wall_time_split"]
            )

    def test_stats_rejects_unknown_experiment(self, capsys):
        assert main(["stats", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.slow
    def test_stats_accepts_socket_engine(self, tmp_path, capsys):
        code = main(
            [
                "stats",
                "e1",
                "--pshape",
                "2x1x1",
                "--engine",
                "socket",
                "--outdir",
                str(tmp_path),
            ]
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "engine=socket" in text
        assert "agreement: exact" in text
        assert (tmp_path / "stats_e1_2x1x1_socket.trace.json").exists()


class TestTraceCommand:
    def test_trace_e1_renders_and_validates(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.json"
        chrome_file = tmp_path / "trace-chrome.json"
        code = main(
            [
                "trace",
                "e1",
                "--pshape",
                "2x1x1",
                "--engine",
                "threaded",
                "--out",
                str(out_file),
                "--chrome",
                str(chrome_file),
                "--limit",
                "10",
            ]
        )
        text = capsys.readouterr().out
        assert code == 0
        # The Figure-1-style timeline: rank columns and clocked events.
        assert " clock " in text and "P0" in text and "P1" in text
        assert "happens-before check: OK" in text
        data = json.loads(out_file.read_text())
        assert data["violations"] == []
        assert data["nprocs"] == 3  # 2x1x1 grid + host rank
        assert data["events"]
        chrome = json.loads(chrome_file.read_text())
        flows = [
            e
            for e in chrome["traceEvents"]
            if e.get("cat") == "causal" and e["ph"] == "s"
        ]
        assert flows

    def test_trace_rejects_unknown_flag(self, capsys):
        assert main(["trace", "e1", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


class TestUsageErrors:
    """Every malformed command line is a usage message on stderr and
    exit status 2 — no traceback, no run started."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["e1", "--bogus"],
            ["e2", "--engine", "fortran"],
            ["stats", "e1", "--pshape", "2xa"],
            ["stats", "e1", "--pshape", "2x0x1"],
            ["stats", "e1", "--hosts", "nocolon"],
            ["e1", "--engine", "threaded", "--hosts", "127.0.0.1:9"],
            ["e1", "--hosts", "127.0.0.1:9"],
            ["e2", "--hosts", "127.0.0.1:9"],
            ["stats", "e1", "--engine", "multiprocess", "--hosts", "127.0.0.1:9"],
            ["trace", "e2", "--engine", "cooperative", "--hosts", "127.0.0.1:9"],
            ["e1", "--engine", "socket", "--hosts", "localhost:99999"],
            ["stats", "e1", "--engine", "socket", "--hosts", "localhost:0"],
            ["trace", "e1", "--engine", "socket", "--hosts", "a:9001,b:65536"],
            ["trace", "e1", "--limit", "x"],
            ["explore", "--schedules", "many"],
            ["explore", "--faults", "explode:now"],
            ["worker-daemon", "--port", "http"],
            ["worker-daemon", "--port"],
        ],
        ids=" ".join,
    )
    def test_exit_2_with_usage(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: python -m repro")
        assert "Traceback" not in captured.err and not captured.out


class TestMainEntry:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "e1" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["bench", "serve-bench", "fleet-bench"])
    def test_retired_bench_subcommands_are_unknown(self, name, capsys):
        # benchmarks/suite/run.py is the one harness; no stub remains.
        assert main([name]) == 2
        assert f"invalid choice: {name!r}" in capsys.readouterr().err

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "e1",
            "e2",
            "table1",
            "figure2",
            "theorem1",
            "figure1",
            "effort",
            "ablations",
            "rcs",
        }

    @pytest.mark.parametrize("name", ["table1", "figure2", "effort"])
    def test_main_runs_cheap_experiments(self, name, capsys):
        assert main([name]) == 0
        assert capsys.readouterr().out
