"""Multi-rank observation merge: the merged report must not depend on
the order worker payloads arrived in (workers report in completion
order, which races)."""

import json

from repro.obs.report import merge_worker_observations
from repro.runtime.system import ChannelStatsRecord


def record(name, writer, reader):
    return ChannelStatsRecord(
        name, writer, reader, sends=3, receives=3, bytes_sent=96, queue_hwm=1
    )


def observation(rank, epoch):
    """One worker's run-wide payload."""
    return {
        "epoch": epoch,
        "streams": {(rank, 1 - rank, 0): (3, 96)},
        "metrics": {"wire/bytes": 96},
    }


def log(rank, epoch):
    """One rank's event-log payload with spans that collide on t0 across
    ranks (coarse clocks on symmetric ranks make exact ties realistic)."""
    return {
        "dropped": 0,
        "events": [],
        "blocked": 0.25,
        "spans": [
            ("E-phase[0]", "phase", epoch + 0.1, epoch + 0.2, 0, {}),
            ("E-phase[1]", "phase", epoch + 0.1, epoch + 0.3, 0, {}),
            ("recv", "blocked", epoch + 0.1, epoch + 0.2, 1, {}),
        ],
        "process": (f"P{rank}", epoch, epoch + 1.5),
    }


def merge(ranks, epoch, reverse=False):
    order = sorted(ranks, reverse=reverse)
    return merge_worker_observations(
        "multiprocess",
        2,
        {r: observation(r, epoch) for r in order},
        [record("c0", 0, 1), record("c1", 1, 0)],
        {r: log(r, epoch) for r in order},
    )


def test_merge_is_deterministic_across_payload_arrival_orders():
    # Same epoch for both ranks: every span t0 ties across ranks, so
    # only the tiebreak chain keeps the merged order deterministic.
    forward = merge([0, 1], 10.0)
    backward = merge([0, 1], 10.0, reverse=True)
    assert forward.spans == backward.spans
    assert forward.processes == backward.processes
    assert forward.streams == backward.streams
    assert forward.metrics == backward.metrics
    # The full serialised reports agree byte-for-byte.
    assert json.dumps(forward.to_events(), sort_keys=True) == json.dumps(
        backward.to_events(), sort_keys=True
    )


def test_merge_orders_same_t0_spans_by_rank_then_extent():
    report = merge([0, 1], 5.0, reverse=True)
    ties = [s for s in report.spans if abs(s.t0 - 0.1) < 1e-12]
    assert [(s.rank, s.t1, s.depth) for s in ties] == sorted(
        (s.rank, s.t1, s.depth) for s in ties
    )


def test_processes_are_the_logs_lifetimes():
    report = merge([0, 1], 5.0)
    assert [(p.rank, p.name, p.wall, p.blocked) for p in report.processes] == [
        (0, "P0", 1.5, 0.25),
        (1, "P1", 1.5, 0.25),
    ]
