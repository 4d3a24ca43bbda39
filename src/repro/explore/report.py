"""Exploration outcomes, reports, and replayable violation artifacts.

Every controlled run is reduced to a :class:`ScheduleOutcome` — the
schedule executed plus one of four terminal kinds:

* ``ok`` — completed; carries the final-state digest;
* ``deadlock`` — raised :class:`~repro.errors.DeadlockError`; carries
  the structured cycle report's description;
* ``crash`` — raised :class:`~repro.errors.ProcessFailedError`; carries
  rank and, for injected faults, step + fault id;
* ``bound`` — hit the ``max_steps`` action bound (the explorer's
  no-hang guarantee: a run that cannot terminate is convicted, not
  waited on).

An :class:`ExplorationReport` aggregates outcomes with search-pruning
statistics and Foata-frontier coverage; any outcome that breaks the
Theorem 1 contract becomes a :class:`Violation` with a **minimal
failing schedule prefix**: the shortest forced prefix whose
deterministic (min-rank) completion still fails.  Violations serialise
to JSON artifacts that ``python -m repro explore --replay`` re-executes
deterministically.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import (
    DeadlockError,
    ProcessFailedError,
    ScheduleError,
)
from repro.runtime.engine_cooperative import CooperativeEngine
from repro.runtime.schedulers import SchedulingPolicy
from repro.runtime.system import System
from repro.theory.determinacy import state_digest

__all__ = [
    "ScheduleOutcome",
    "Violation",
    "ExplorationReport",
    "run_controlled",
    "minimize_prefix",
    "save_artifact",
    "load_artifact",
    "replay_artifact",
]


@dataclass
class ScheduleOutcome:
    """One controlled run, classified."""

    kind: str  # 'ok' | 'deadlock' | 'crash' | 'bound'
    schedule: tuple[int, ...]
    digest: str | None = None
    detail: str = ""
    rank: int | None = None
    step: int | None = None
    fault_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    def describe(self) -> str:
        if self.kind == "ok":
            return f"ok digest={(self.digest or '')[:12]}"
        bits = [self.kind]
        if self.rank is not None:
            bits.append(f"rank={self.rank}")
        if self.fault_id is not None:
            bits.append(f"fault={self.fault_id}")
        if self.detail:
            bits.append(self.detail)
        return " ".join(bits)


def run_controlled(
    system: System,
    policy: SchedulingPolicy,
    controller,
    max_steps: int | None = None,
) -> ScheduleOutcome:
    """Execute one run under ``policy`` and classify the outcome.

    ``controller`` is the :class:`~repro.runtime.schedulers
    .ScheduleController` whose log names the schedule (``policy`` is
    either the controller itself or a fault wrapper around it).
    """
    try:
        run = CooperativeEngine(
            policy, trace=False, max_actions=max_steps
        ).run(system)
    except DeadlockError as exc:
        report = getattr(exc.result, "deadlock", None)
        return ScheduleOutcome(
            kind="deadlock",
            schedule=tuple(controller.schedule),
            detail=report.describe() if report is not None else str(exc),
        )
    except ProcessFailedError as exc:
        return ScheduleOutcome(
            kind="crash",
            schedule=tuple(controller.schedule),
            detail=repr(exc.original),
            rank=exc.rank,
            step=exc.step,
            fault_id=exc.fault_id,
        )
    except ScheduleError as exc:
        return ScheduleOutcome(
            kind="bound",
            schedule=tuple(controller.schedule),
            detail=str(exc),
        )
    return ScheduleOutcome(
        kind="ok",
        schedule=tuple(controller.schedule),
        digest=state_digest(run),
    )


@dataclass
class Violation:
    """A schedule on which the Theorem 1 contract failed, replayably."""

    kind: str  # 'nondeterminate' | 'deadlock' | 'crash' | 'hang-bound'
    target: str
    strategy: str
    schedule: list[int]
    #: minimal forced prefix whose deterministic completion still fails
    prefix: list[int]
    expected_digest: str | None
    got_digest: str | None = None
    detail: str = ""
    faults: dict | None = None

    def to_dict(self) -> dict:
        return {
            "format": "repro.explore.violation/v1",
            "kind": self.kind,
            "target": self.target,
            "strategy": self.strategy,
            "schedule": list(self.schedule),
            "prefix": list(self.prefix),
            "expected_digest": self.expected_digest,
            "got_digest": self.got_digest,
            "detail": self.detail,
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(
            kind=data["kind"],
            target=data["target"],
            strategy=data.get("strategy", "?"),
            schedule=[int(r) for r in data["schedule"]],
            prefix=[int(r) for r in data["prefix"]],
            expected_digest=data.get("expected_digest"),
            got_digest=data.get("got_digest"),
            detail=data.get("detail", ""),
            faults=data.get("faults"),
        )

    def describe(self) -> str:
        return (
            f"{self.kind} on {self.target}: minimal prefix "
            f"{self.prefix} (of a {len(self.schedule)}-action "
            f"schedule) — {self.detail or 'final state diverges'}"
        )


def minimize_prefix(
    run_one: Callable[[list[int]], ScheduleOutcome],
    schedule: Sequence[int],
    failed: Callable[[ScheduleOutcome], bool],
) -> tuple[list[int], ScheduleOutcome]:
    """Shortest prefix of ``schedule`` whose deterministic completion
    still fails.

    ``run_one(prefix)`` re-executes the system forced through ``prefix``
    and completed min-rank; ``failed`` judges the outcome.  Linear scan
    from the empty prefix: the first failing length is minimal in the
    forced-prefix sense (shorter prefixes provably complete cleanly
    under the deterministic tail).  The full schedule reproduces the
    original failure, so the scan always terminates with a witness.
    """
    for cut in range(len(schedule) + 1):
        prefix = list(schedule[:cut])
        outcome = run_one(prefix)
        if failed(outcome):
            return prefix, outcome
    return list(schedule), run_one(list(schedule))


@dataclass
class ExplorationReport:
    """Aggregated statistics of one exploration."""

    target: str
    strategy: str
    faults: str = "none"
    schedules: int = 0  # distinct complete schedules visited
    runs: int = 0  # engine executions (including replays/minimisation)
    pruned_fingerprint: int = 0
    states_fingerprinted: int = 0
    digests: dict[str, int] = field(default_factory=dict)
    deadlocks: int = 0
    crashes: int = 0
    bounds: int = 0
    #: distinct first-action ranks over all visited schedules
    frontier_first: set[int] = field(default_factory=set)
    #: width of the Foata layer-0 frontier (0 = not computed)
    frontier_width: int = 0
    violations: list[Violation] = field(default_factory=list)
    baseline_digest: str | None = None
    wall_s: float = 0.0
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def record(self, outcome: ScheduleOutcome) -> None:
        """Fold one *distinct* schedule's outcome into the stats."""
        self.schedules += 1
        if outcome.schedule:
            self.frontier_first.add(outcome.schedule[0])
        if outcome.kind == "ok" and outcome.digest is not None:
            self.digests[outcome.digest] = (
                self.digests.get(outcome.digest, 0) + 1
            )
        elif outcome.kind == "deadlock":
            self.deadlocks += 1
        elif outcome.kind == "crash":
            self.crashes += 1
        elif outcome.kind == "bound":
            self.bounds += 1

    def finish(self) -> None:
        self.wall_s = time.perf_counter() - self._started

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def frontier_coverage(self) -> float | None:
        """Distinct first actions / Foata frontier width, in [0, 1]."""
        if not self.frontier_width:
            return None
        return min(1.0, len(self.frontier_first) / self.frontier_width)

    def summary(self) -> str:
        cov = self.frontier_coverage
        lines = [
            f"explore[{self.strategy}] {self.target}: "
            f"{self.schedules} schedules "
            f"({self.runs} runs, {self.wall_s:.2f}s), "
            f"{len(self.digests)} distinct final state(s), "
            f"faults={self.faults}",
            f"  pruned: {self.pruned_fingerprint} fingerprint "
            f"({self.states_fingerprinted} states hashed); "
            f"deadlocks={self.deadlocks} crashes={self.crashes} "
            f"bound-hits={self.bounds}",
            "  frontier coverage: "
            + (
                f"{len(self.frontier_first)}/{self.frontier_width} "
                f"({cov:.0%})"
                if cov is not None
                else "n/a"
            ),
        ]
        if self.violations:
            lines.append(f"  VIOLATIONS: {len(self.violations)}")
            for violation in self.violations:
                lines.append(f"    {violation.describe()}")
        else:
            lines.append(
                "  contract holds on every explored schedule"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "strategy": self.strategy,
            "faults": self.faults,
            "schedules": self.schedules,
            "runs": self.runs,
            "pruned_fingerprint": self.pruned_fingerprint,
            "states_fingerprinted": self.states_fingerprinted,
            "distinct_digests": len(self.digests),
            "deadlocks": self.deadlocks,
            "crashes": self.crashes,
            "bound_hits": self.bounds,
            "frontier_first": sorted(self.frontier_first),
            "frontier_width": self.frontier_width,
            "frontier_coverage": self.frontier_coverage,
            "baseline_digest": self.baseline_digest,
            "violations": [v.to_dict() for v in self.violations],
            "wall_s": round(self.wall_s, 4),
        }


# ---------------------------------------------------------------------------
# Violation artifacts: dump / load / replay
# ---------------------------------------------------------------------------


def save_artifact(violation: Violation, path: str | Path) -> Path:
    """Write a violation as a replayable JSON artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(violation.to_dict(), indent=2) + "\n")
    return path


def load_artifact(path: str | Path) -> Violation:
    data = json.loads(Path(path).read_text())
    if data.get("format") != "repro.explore.violation/v1":
        raise ValueError(
            f"{path}: not a repro.explore violation artifact"
        )
    return Violation.from_dict(data)


def replay_artifact(
    violation: Violation, max_steps: int | None = None
) -> tuple[bool, ScheduleOutcome]:
    """Re-execute a violation's minimal prefix deterministically.

    Rebuilds the named target (and its recorded fault plan, if any),
    forces the minimal prefix, completes min-rank, and reports whether
    the failure reproduced: for ``nondeterminate`` violations, a final
    state that differs from the expected digest; for the other kinds, a
    matching terminal outcome.
    """
    from repro.explore.faults import FaultedPolicy, FaultPlan, apply_faults
    from repro.explore.fixtures import build_target
    from repro.runtime.schedulers import ScheduleController

    system = build_target(violation.target)()
    plan = (
        FaultPlan.from_dict(violation.faults)
        if violation.faults
        else FaultPlan()
    )
    if plan:
        system = apply_faults(system, plan)
    controller = ScheduleController(violation.prefix)
    policy = (
        FaultedPolicy(controller, plan.delays) if plan.delays else controller
    )
    outcome = run_controlled(system, policy, controller, max_steps)
    if violation.kind == "nondeterminate":
        reproduced = (
            outcome.kind != "ok"
            or outcome.digest != violation.expected_digest
        )
    else:
        kind_map = {"hang-bound": "bound"}
        reproduced = outcome.kind == kind_map.get(
            violation.kind, violation.kind
        )
    return reproduced, outcome
