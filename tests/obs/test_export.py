"""Report serialisation: JSONL round-trip and Chrome trace structure."""

import json

from repro.obs import (
    ProcessTimes,
    RunReport,
    Span,
    StreamTraffic,
    chrome_trace_dict,
    read_chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.runtime.system import ChannelStatsRecord


def sample_report() -> RunReport:
    return RunReport(
        engine="threaded",
        nprocs=2,
        processes=[
            ProcessTimes(0, "P0", wall=2.0, blocked=0.5),
            ProcessTimes(1, "P1", wall=1.5, blocked=1.0),
        ],
        channels=[
            ChannelStatsRecord("c0", 0, 1, sends=3, receives=3, bytes_sent=24, queue_hwm=2),
            ChannelStatsRecord("c1", 1, 0, sends=3, receives=3, bytes_sent=24, queue_hwm=1),
        ],
        streams=[StreamTraffic(0, 1, 7, messages=3, nbytes=24)],
        spans=[
            Span("compute", "stage", 0, 0.0, 1.0),
            Span("recv c1", "blocked", 0, 1.0, 1.5, depth=1, args={"n": 1}),
        ],
        metrics={"comm/pending/P0/hwm": 2},
    )


class TestEventsRoundTrip:
    def test_to_from_events_equal(self):
        report = sample_report()
        rebuilt = RunReport.from_events(report.to_events())
        assert rebuilt == report

    def test_events_are_json_safe(self):
        for event in sample_report().to_events():
            json.dumps(event)


class TestJsonl:
    def test_file_round_trip(self, tmp_path):
        report = sample_report()
        path = write_jsonl(report, tmp_path / "run.jsonl")
        assert read_jsonl(path) == report

    def test_one_object_per_line(self, tmp_path):
        report = sample_report()
        path = write_jsonl(report, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(report.to_events())
        for line in lines:
            json.loads(line)


class TestChromeTrace:
    def test_structure(self):
        trace = chrome_trace_dict(sample_report())
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        # Process metadata plus name/sort-index metadata per rank lane.
        assert {e["name"] for e in meta} == {
            "process_name",
            "process_sort_index",
            "thread_name",
            "thread_sort_index",
        }
        assert len([e for e in meta if e["name"] == "thread_name"]) == 2
        assert len([e for e in meta if e["name"] == "thread_sort_index"]) == 2
        assert len(complete) == 2

    def test_microsecond_scaling(self):
        trace = chrome_trace_dict(sample_report())
        blocked = next(
            e
            for e in trace["traceEvents"]
            if e.get("cat") == "blocked"
        )
        assert blocked["ts"] == 1.0e6
        assert blocked["dur"] == 0.5e6
        assert blocked["args"] == {"n": 1}

    def test_write_read_valid_json(self, tmp_path):
        path = write_chrome_trace(sample_report(), tmp_path / "t.json")
        loaded = read_chrome_trace(path)
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == len(
            chrome_trace_dict(sample_report())["traceEvents"]
        )
