"""Fleet serving: one ``submit() → Future`` front door over many daemons.

The paper's "network of Suns" at service scale: a
:class:`FleetScheduler` places jobs across worker daemons
(:mod:`repro.dist.net.daemon`), keeps membership honest with
heartbeats, re-places jobs when a daemon dies mid-run (sound by
Theorem 1 — results are deterministic, so a silent re-run is
invisible), and applies the same admission control as the single-host
:class:`~repro.dist.serve.JobServer`.

See :mod:`repro.dist.fleet.scheduler` for the full story.
"""

from repro.dist.fleet.membership import (
    MAX_CAPACITY,
    DaemonState,
    HeartbeatMonitor,
    elastic_capacity,
)
from repro.dist.fleet.placement import least_loaded
from repro.dist.fleet.scheduler import (
    FleetScheduler,
    JobStats,
    ServerClosedError,
)

__all__ = [
    "FleetScheduler",
    "JobStats",
    "ServerClosedError",
    "MAX_CAPACITY",
    "DaemonState",
    "HeartbeatMonitor",
    "elastic_capacity",
    "least_loaded",
]
