"""repro.explore — systematic schedule exploration and fault injection.

Turns Theorem 1 from a statement proved once into an invariant tested
continuously: the explorer drives real systems (the FDTD experiments,
the pipeline and divide-and-conquer archetypes, toy fixtures) through
the space of maximal interleavings via the cooperative engine's
scheduling hook, checks every explored schedule for the determinacy
contract — bitwise-identical final state, or under a fault plan either
that state or a clean failure — and renders any violation as a minimal
replayable schedule prefix.

Layers (see docs/EXPLORATION.md):

* :mod:`~repro.explore.fingerprint` — state hashing for stateful
  pruning, handed to the
  :class:`~repro.runtime.schedulers.ScheduleController` that records
  and steers every ready-set decision;
* :mod:`~repro.explore.strategies` — depth-bounded DFS (fingerprint
  pruned, over :func:`repro.theory.enumerate.walk_schedules`) and
  seeded random walks, plus real-engine fault sweeps;
* :mod:`~repro.explore.faults` — declarative kill/delay fault plans,
  applied as planted exceptions or genuine ``SIGKILL``s;
* :mod:`~repro.explore.report` — outcomes, exploration reports
  (exported through :mod:`repro.obs`), violation artifacts and replay;
* :mod:`~repro.explore.fixtures` — the named target registry,
  including the deliberately-racy fixture the search must convict.
"""

from repro.explore.faults import (
    DelayFault,
    FaultedPolicy,
    FaultPlan,
    InjectedKill,
    KillFault,
    apply_faults,
    parse_fault_plan,
)
from repro.explore.fingerprint import state_fingerprint
from repro.explore.fixtures import build_target, list_targets
from repro.explore.report import (
    ExplorationReport,
    ScheduleOutcome,
    Violation,
    load_artifact,
    minimize_prefix,
    replay_artifact,
    run_controlled,
    save_artifact,
)
from repro.explore.strategies import (
    explore_dfs,
    explore_walk,
    fault_sweep_engine,
)

__all__ = [
    "state_fingerprint",
    "KillFault",
    "DelayFault",
    "FaultPlan",
    "InjectedKill",
    "FaultedPolicy",
    "apply_faults",
    "parse_fault_plan",
    "ScheduleOutcome",
    "ExplorationReport",
    "Violation",
    "run_controlled",
    "minimize_prefix",
    "save_artifact",
    "load_artifact",
    "replay_artifact",
    "explore_dfs",
    "explore_walk",
    "fault_sweep_engine",
    "build_target",
    "list_targets",
]
