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
    """One worker's payload with spans that collide on t0 across ranks
    (coarse clocks on symmetric ranks make exact ties realistic)."""
    return {
        "epoch": epoch,
        "procs": {rank: (f"P{rank}", 1.5, 0.25)},
        "streams": {(rank, 1 - rank, 0): (3, 96)},
        "spans": [
            ("E-phase[0]", "phase", rank, epoch + 0.1, epoch + 0.2, 0, {}),
            ("E-phase[1]", "phase", rank, epoch + 0.1, epoch + 0.3, 0, {}),
            ("recv", "blocked", rank, epoch + 0.1, epoch + 0.2, 1, {}),
        ],
        "metrics": {"wire/pipe_bytes": 96},
    }


def test_merge_is_deterministic_across_payload_arrival_orders():
    channels = [record("c0", 0, 1), record("c1", 1, 0)]
    # Same epoch for both ranks: every span t0 ties across ranks, so
    # only the tiebreak chain keeps the merged order deterministic.
    payloads = {0: observation(0, 10.0), 1: observation(1, 10.0)}
    forward = merge_worker_observations("multiprocess", 2, payloads, channels)
    backward = merge_worker_observations(
        "multiprocess",
        2,
        dict(sorted(payloads.items(), reverse=True)),
        channels,
    )
    assert forward.spans == backward.spans
    assert forward.processes == backward.processes
    assert forward.streams == backward.streams
    assert forward.metrics == backward.metrics
    # The full serialised reports agree byte-for-byte.
    assert json.dumps(forward.to_events(), sort_keys=True) == json.dumps(
        backward.to_events(), sort_keys=True
    )


def test_merge_orders_same_t0_spans_by_rank_then_extent():
    channels = []
    payloads = {1: observation(1, 5.0), 0: observation(0, 5.0)}
    report = merge_worker_observations("multiprocess", 2, payloads, channels)
    ties = [s for s in report.spans if abs(s.t0 - 0.1) < 1e-12]
    assert [(s.rank, s.t1, s.depth) for s in ties] == sorted(
        (s.rank, s.t1, s.depth) for s in ties
    )
