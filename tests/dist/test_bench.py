"""The engine-comparison bench harness (smoke configuration)."""

import json

import pytest

from repro.dist.bench import run_bench


@pytest.mark.slow
def test_smoke_bench_writes_valid_json(tmp_path):
    out_path = tmp_path / "BENCH_engines.json"
    lines = []
    ok = run_bench(["--smoke", "--out", str(out_path)], out=lines.append)
    assert ok, "\n".join(lines)

    payload = json.loads(out_path.read_text())
    assert payload["meta"]["smoke"] is True
    assert payload["checks"]["all_near_fields_identical"] is True

    results = payload["results"]
    # Two smoke cases (Versions A and C) across the three engines plus
    # the pooled/batched multiprocess variants and the socket rows.
    assert {r["engine"] for r in results} == {
        "cooperative",
        "threaded",
        "multiprocess",
        "multiprocess+pool",
        "multiprocess+batch",
        "socket",
        "socket+batch",
    }
    assert {r["version"] for r in results} == {"A", "C"}
    for row in results:
        assert row["near_identical_to_sequential"] is True
        assert row["run_s"] >= 0
        assert row["messages"] > 0 and row["bytes"] > 0
        if row["transport"] in ("pipe", "socket"):
            assert row["frames"] > 0
        else:  # in-process engines have no wire
            assert row["frames"] == 0
            assert row["pipe_bytes"] == 0 and row["shm_bytes"] == 0
        if row["transport"] == "socket":
            # Vectored-send accounting is live on every socket row.
            assert row["net_syscalls"] > 0
            assert row["net_syscalls_unvectored"] > row["net_syscalls"]
            assert row["net_vectored"] > 0
            assert row["coalesce_hwm"] >= 1
        else:
            assert row["net_syscalls"] == 0
            assert row["net_vectored"] == 0

    # The batching checks run even in smoke: strictly fewer total wire
    # frames, and exactly half on the data-exchange channels proper
    # (two footprint components per face, batched into one frame).
    assert payload["checks"]["batched_frames_lt_unbatched"] is True
    assert payload["checks"]["batched_dx_frames_exactly_half"] is True
    assert payload["checks"]["batched_dx_frame_reduction_ge_2x"] is True
    assert payload["checks"]["batched_dx_frame_reduction_min_ratio"] >= 2.0

    # The vectored socket data plane must at least halve send syscalls
    # versus the unvectored sender, on every socket row.
    assert payload["checks"]["net_send_syscall_reduction_ge_2x"] is True
    assert payload["checks"]["net_send_syscall_reduction_min_ratio"] >= 2.0


def test_engine_subset_and_repeat_flags(tmp_path):
    out_path = tmp_path / "bench.json"
    lines = []
    ok = run_bench(
        ["--smoke", "--engines", "threaded", "--out", str(out_path)],
        out=lines.append,
    )
    assert ok
    payload = json.loads(out_path.read_text())
    assert {r["engine"] for r in payload["results"]} == {"threaded"}


@pytest.mark.slow
def test_payload_slab_zero_disables_shm_payloads(tmp_path):
    out_path = tmp_path / "bench.json"
    lines = []
    ok = run_bench(
        [
            "--smoke",
            "--engines",
            "multiprocess",
            "--payload-slab",
            "0",
            "--out",
            str(out_path),
        ],
        out=lines.append,
    )
    assert ok, "\n".join(lines)
    payload = json.loads(out_path.read_text())
    assert payload["meta"]["payload_slab"] == 0
    for row in payload["results"]:
        assert row["shm_bytes"] == 0  # everything went through the pipe
        assert row["pipe_bytes"] > 0
        assert row["near_identical_to_sequential"] is True


def test_unknown_flag_rejected(tmp_path):
    lines = []
    assert run_bench(["--frobnicate"], out=lines.append) is False
    assert any("frobnicate" in line for line in lines)
