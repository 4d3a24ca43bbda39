"""Search strategies over the maximal-interleaving space.

Two strategies steer the cooperative engine through a system's
schedule space with a
:class:`~repro.runtime.schedulers.ScheduleController`:

* :func:`explore_dfs` — depth-bounded depth-first search: one call of
  the schedule-tree walk :func:`repro.theory.enumerate.walk_schedules`,
  branching at every untaken enabled action of every decision, pruned
  by **state fingerprints** (a branch node whose scheduler-visible
  state was already expanded is not expanded again — converging
  prefixes are explored once);
* :func:`explore_walk` — seeded random walks, one fresh
  :class:`~repro.runtime.schedulers.RandomPolicy` seed per run,
  deduplicated by schedule until the requested number of *distinct*
  schedules is visited.  No pruning, no per-decision hashing: the
  cheap, scalable sampler for systems (e.g. the FDTD programs) whose
  stores are too large to fingerprint at every step.

Neither uses sleep sets.  The explorer hunts for violations of
Theorem 1's hypotheses, and independence-based pruning assumes they
hold: two steps of different processes "commute" only if they share no
variable, which is exactly what a racy system breaks.

Both return an :class:`~repro.explore.report.ExplorationReport` whose
``violations`` list holds every schedule that broke the Theorem 1
contract, each already minimised to its shortest failing prefix.
:func:`fault_sweep_engine` is the off-cooperative counterpart: it runs
a fault plan against a real process engine (multiprocess/socket, real
``SIGKILL`` kills, real-time delays) and classifies every outcome.
"""

from __future__ import annotations

from typing import Callable

from repro.explore.faults import FaultedPolicy, FaultPlan, apply_faults
from repro.explore.fingerprint import state_fingerprint
from repro.explore.report import (
    ExplorationReport,
    ScheduleOutcome,
    Violation,
    minimize_prefix,
    run_controlled,
)
from repro.runtime.schedulers import RandomPolicy, ScheduleController
from repro.runtime.system import System
from repro.theory.determinacy import state_digest
from repro.theory.enumerate import walk_schedules

__all__ = [
    "explore_dfs",
    "explore_walk",
    "fault_sweep_engine",
]

SystemFactory = Callable[[], System]


def _as_factory(system) -> SystemFactory:
    """Accept a System or a zero-argument factory.

    Factories matter for *impure* systems (the racy fixture's shared
    closure state): each run must see a fresh instance or re-execution
    would not be reproducible.  Conforming systems are reusable and may
    be passed directly.
    """
    if isinstance(system, System):
        return lambda: system
    if callable(system):
        return system
    raise TypeError(f"expected System or factory, got {type(system)!r}")


#: a walk gives up after this many attempts per requested schedule, so
#: a system with fewer distinct maximal interleavings still terminates
_ATTEMPTS_PER_SCHEDULE = 4


def _run_once(
    factory: SystemFactory,
    plan: FaultPlan,
    controller: ScheduleController,
    max_steps: int | None = None,
) -> ScheduleOutcome:
    policy = (
        FaultedPolicy(controller, plan.delays) if plan.delays else controller
    )
    system = factory()
    if plan.kills:
        # Simulated kills: bodies raise InjectedKill at the planned
        # action.  Delays need no body wrapping here — the policy mask
        # above models them at the scheduler.
        system = apply_faults(system, plan)
    return run_controlled(system, policy, controller, max_steps)


def _baseline_digest(
    factory: SystemFactory, max_steps: int | None
) -> str | None:
    """Digest of the deterministic fault-free min-rank run (the
    reference all other schedules must match), or None if even that run
    fails (the violation machinery then reports the failure itself)."""
    return _run_once(
        factory, FaultPlan(), ScheduleController(), max_steps
    ).digest


def _measure_frontier(
    report: ExplorationReport, factory: SystemFactory, max_steps: int | None
) -> None:
    """Width of the Foata layer-0 frontier from one traced run."""
    from repro.errors import ReproError
    from repro.runtime.engine_cooperative import CooperativeEngine
    from repro.theory.foata import frontier

    try:
        run = CooperativeEngine(trace=True, max_actions=max_steps).run(
            factory()
        )
        report.frontier_width = len(frontier(run.trace))
    except ReproError:
        # Systems whose deterministic run already fails have no
        # reference trace; coverage is reported as n/a.
        report.frontier_width = 0


def _classify_violations(
    report: ExplorationReport,
    bad_outcomes: list[ScheduleOutcome],
    factory: SystemFactory,
    plan: FaultPlan,
    max_steps: int | None,
    minimize: bool = True,
) -> None:
    """Turn contract-breaking outcomes into minimised violations."""
    expected = report.baseline_digest

    def run_one(prefix: list[int]) -> ScheduleOutcome:
        report.runs += 1
        return _run_once(
            factory, plan, ScheduleController(prefix), max_steps
        )

    def failed(outcome: ScheduleOutcome) -> bool:
        return _is_contract_break(outcome, expected, plan)

    kind_of = {
        "ok": "nondeterminate",
        "deadlock": "deadlock",
        "crash": "crash",
        "bound": "hang-bound",
    }
    for outcome in bad_outcomes:
        schedule = list(outcome.schedule)
        if minimize:
            prefix, witness = minimize_prefix(run_one, schedule, failed)
        else:
            prefix, witness = schedule, outcome
        report.violations.append(
            Violation(
                kind=kind_of[outcome.kind],
                target=report.target,
                strategy=report.strategy,
                schedule=schedule,
                prefix=prefix,
                expected_digest=expected,
                got_digest=witness.digest,
                detail=witness.detail or outcome.detail,
                faults=plan.to_dict() if plan else None,
            )
        )


def _is_contract_break(
    outcome: ScheduleOutcome, expected: str | None, plan: FaultPlan
) -> bool:
    if outcome.kind == "ok":
        return expected is not None and outcome.digest != expected
    if outcome.kind == "crash":
        # Under a kill plan a clean ProcessFailedError is an allowed
        # outcome; any crash without a kill plan breaks the contract.
        return not plan.kills
    return True  # deadlock or bound hit


def _start(
    factory: SystemFactory,
    strategy: str,
    plan: FaultPlan,
    target: str,
    max_steps: int | None,
) -> ExplorationReport:
    """A report holding the reference digest and the frontier width."""
    report = ExplorationReport(
        target=target, strategy=strategy, faults=plan.describe()
    )
    report.baseline_digest = _baseline_digest(factory, max_steps)
    report.runs += 1
    _measure_frontier(report, factory, max_steps)
    return report


def _record(
    report: ExplorationReport,
    bad: list[ScheduleOutcome],
    outcome: ScheduleOutcome,
    plan: FaultPlan,
    max_violations: int,
) -> None:
    """Fold a distinct schedule's outcome into ``report``; keep it in
    ``bad`` (up to ``max_violations``) when it breaks the contract."""
    report.record(outcome)
    if (
        _is_contract_break(outcome, report.baseline_digest, plan)
        and len(bad) < max_violations
    ):
        bad.append(outcome)


def explore_dfs(
    system,
    *,
    max_schedules: int = 500,
    max_depth: int | None = None,
    max_steps: int | None = None,
    fingerprints: bool = True,
    plan: FaultPlan | None = None,
    target: str = "system",
    max_violations: int = 4,
    minimize: bool = True,
) -> ExplorationReport:
    """Depth-bounded DFS with fingerprint pruning.

    ``max_depth`` bounds the decision index at which new branches are
    opened (runs still complete past it); ``max_steps`` bounds each
    run's total actions (hang conviction); ``max_schedules`` bounds the
    whole search.
    """
    factory = _as_factory(system)
    plan = plan or FaultPlan()
    report = _start(factory, "dfs", plan, target, max_steps)
    bad: list[ScheduleOutcome] = []

    def run(controller: ScheduleController) -> str | None:
        outcome = _run_once(factory, plan, controller, max_steps)
        _record(report, bad, outcome, plan, max_violations)
        return outcome.digest

    walk = walk_schedules(
        run,
        max_leaves=max_schedules,
        overflow=False,
        fingerprint=state_fingerprint if fingerprints else None,
        max_depth=max_depth,
    )
    report.runs += walk.runs
    report.pruned_fingerprint = walk.pruned
    report.states_fingerprinted = walk.hashed
    _classify_violations(report, bad, factory, plan, max_steps, minimize)
    report.finish()
    return report


def explore_walk(
    system,
    *,
    n_schedules: int = 500,
    seed: int = 0,
    max_steps: int | None = None,
    plan: FaultPlan | None = None,
    target: str = "system",
    max_violations: int = 4,
    minimize: bool = True,
) -> ExplorationReport:
    """Seeded random walks until ``n_schedules`` *distinct* schedules.

    Each attempt runs the whole system under a fresh seed; duplicate
    schedules don't count toward the target.  Bounded at
    ``_ATTEMPTS_PER_SCHEDULE * n_schedules`` attempts, so a system with
    fewer distinct maximal interleavings than requested still
    terminates.
    """
    factory = _as_factory(system)
    plan = plan or FaultPlan()
    report = _start(factory, "walk", plan, target, max_steps)
    seen_schedules: set[tuple[int, ...]] = set()
    bad: list[ScheduleOutcome] = []
    for attempt in range(_ATTEMPTS_PER_SCHEDULE * n_schedules):
        if report.schedules >= n_schedules:
            break
        controller = ScheduleController(tail=RandomPolicy(seed + attempt))
        outcome = _run_once(factory, plan, controller, max_steps)
        report.runs += 1
        if outcome.schedule not in seen_schedules:
            seen_schedules.add(outcome.schedule)
            _record(report, bad, outcome, plan, max_violations)
    _classify_violations(report, bad, factory, plan, max_steps, minimize)
    report.finish()
    return report


def fault_sweep_engine(
    system,
    plan: FaultPlan,
    engine,
    runs: int = 3,
    baseline_digest: str | None = None,
    target: str = "system",
) -> list[ScheduleOutcome]:
    """Run a fault plan against a real process engine.

    Kill faults become genuine ``SIGKILL``s (the worker for that rank
    dies mid-run; the engine's crash reaping must surface a clean
    :class:`~repro.errors.ProcessFailedError`); delay faults become
    real-time sender-side sleeps.  Each outcome is classified exactly
    like a cooperative one; crash outcomes are annotated with the
    plan's step/fault-id when the wire lost them (a SIGKILLed worker
    reports nothing, so provenance comes from the plan, which is the
    only party that knows it).  A reader failing fast with "writer
    terminated" only echoes the victim, and the engine then reports the
    victim (:meth:`~repro.dist.engine.Collected.blamed_rank`); the
    failure it surfaces may still belong to a *peer* that failed on its
    own account.  That is still the clean-failure outcome the contract
    demands, and the annotation is added only when the reported rank
    matches a planned kill.

    ``engine`` is an engine *name* (``"multiprocess"`` / ``"socket"``)
    or an engine instance.  Under a kill plan pass the name: the sweep
    then builds a fresh engine per run and closes it after, its one
    release, because a ``SIGKILL`` can take the engine's workers (a
    loopback daemon hosting the rank) down with it.
    """
    from repro.errors import ProcessFailedError

    factory = _as_factory(system)
    outcomes: list[ScheduleOutcome] = []
    for _ in range(runs):
        faulted_system = apply_faults(
            factory(), plan, real_kill=True, real_delay=True
        )
        if isinstance(engine, str):
            from repro.runtime import make_engine

            run_engine, owned = make_engine(engine), True
        else:
            run_engine, owned = engine, False
        try:
            result = run_engine.run(faulted_system)
        except ProcessFailedError as exc:
            kill = plan.kill_for(exc.rank)
            outcomes.append(
                ScheduleOutcome(
                    kind="crash",
                    schedule=(),
                    detail=repr(exc.original),
                    rank=exc.rank,
                    step=exc.step
                    if exc.step is not None
                    else (kill.step if kill else None),
                    fault_id=exc.fault_id
                    if exc.fault_id is not None
                    else (kill.fault_id if kill else None),
                )
            )
            continue
        finally:
            if owned:
                close = getattr(run_engine, "close", None)
                if close is not None:
                    close()
        digest = state_digest(result)
        kind = "ok"
        detail = ""
        if baseline_digest is not None and digest != baseline_digest:
            kind = "bound"  # corrupted result: flagged as contract break
            detail = (
                f"final state diverged under {plan.describe()}: "
                f"{digest[:12]} != {baseline_digest[:12]}"
            )
        outcomes.append(
            ScheduleOutcome(
                kind=kind, schedule=(), digest=digest, detail=detail
            )
        )
    return outcomes
