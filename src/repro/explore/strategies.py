"""Search strategies over the maximal-interleaving space.

Two strategies drive the :class:`~repro.explore.controller
.ScheduleController` through a system's schedule space:

* :func:`explore_dfs` — depth-bounded depth-first search, branching at
  every untaken enabled action of every recorded decision (the
  stateless re-execution scheme of :mod:`repro.theory.enumerate`),
  pruned two ways: **sleep sets** (an alternative that merely commutes
  with an already-explored sibling is never scheduled —
  :func:`repro.theory.por.independent_actions`) and **state
  fingerprints** (a branch node whose scheduler-visible state was
  already expanded is not expanded again — converging prefixes are
  explored once);
* :func:`explore_walk` — seeded random walks, one fresh
  :class:`~repro.runtime.schedulers.RandomPolicy` seed per run,
  deduplicated by schedule until the requested number of *distinct*
  schedules is visited.  No pruning, no per-decision hashing: the
  cheap, scalable sampler for systems (e.g. the FDTD programs) whose
  stores are too large to fingerprint at every step.

Both return an :class:`~repro.explore.report.ExplorationReport` whose
``violations`` list holds every schedule that broke the Theorem 1
contract, each already minimised to its shortest failing prefix.
:func:`fault_sweep_engine` is the off-cooperative counterpart: it runs
a fault plan against a real process engine (multiprocess/socket, real
``SIGKILL`` kills, real-time delays) and classifies every outcome.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.explore.controller import ScheduleController
from repro.explore.faults import FaultedPolicy, FaultPlan, apply_faults
from repro.explore.report import (
    ExplorationReport,
    ScheduleOutcome,
    Violation,
    minimize_prefix,
    run_controlled,
)
from repro.runtime.schedulers import PendingAction, RandomPolicy
from repro.runtime.system import System
from repro.theory.determinacy import state_digest
from repro.theory.por import independent_actions

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


def _run_once(
    factory: SystemFactory,
    plan: FaultPlan,
    prefix: Sequence[int],
    tail=None,
    fingerprint: bool = False,
    max_steps: int | None = None,
) -> tuple[ScheduleOutcome, ScheduleController]:
    controller = ScheduleController(prefix, tail=tail, fingerprint=fingerprint)
    policy = (
        FaultedPolicy(controller, plan.delays) if plan.delays else controller
    )
    system = factory()
    if plan.kills:
        # Simulated kills: bodies raise InjectedKill at the planned
        # action.  Delays need no body wrapping here — the policy mask
        # above models them at the scheduler.
        system = apply_faults(system, plan)
    outcome = run_controlled(system, policy, controller, max_steps)
    return outcome, controller


def _baseline_digest(
    factory: SystemFactory, max_steps: int | None
) -> str | None:
    """Digest of the deterministic fault-free min-rank run (the
    reference all other schedules must match), or None if even that run
    fails (the violation machinery then reports the failure itself)."""
    outcome, _ = _run_once(
        factory, FaultPlan(), (), max_steps=max_steps
    )
    return outcome.digest


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
        outcome, _ = _run_once(factory, plan, prefix, max_steps=max_steps)
        report.runs += 1
        return outcome

    def failed(outcome: ScheduleOutcome) -> bool:
        if outcome.kind == "ok":
            return outcome.digest != expected
        if outcome.kind == "crash" and plan.kills:
            return False  # a clean injected-kill failure is allowed
        return True

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


def explore_dfs(
    system,
    *,
    max_schedules: int = 500,
    max_depth: int | None = None,
    max_steps: int | None = None,
    fingerprints: bool = True,
    sleep_sets: bool = True,
    plan: FaultPlan | None = None,
    target: str = "system",
    max_violations: int = 4,
    minimize: bool = True,
) -> ExplorationReport:
    """Depth-bounded DFS with sleep-set and fingerprint pruning.

    ``max_depth`` bounds the decision index at which new branches are
    opened (runs still complete past it); ``max_steps`` bounds each
    run's total actions (hang conviction); ``max_schedules`` bounds the
    whole search.
    """
    factory = _as_factory(system)
    plan = plan or FaultPlan()
    report = ExplorationReport(
        target=target, strategy="dfs", faults=plan.describe()
    )
    report.baseline_digest = _baseline_digest(factory, max_steps)
    report.runs += 1
    _measure_frontier(report, factory, max_steps)

    expanded_fps: set[str] = set()
    seen_schedules: set[tuple[int, ...]] = set()
    bad: list[ScheduleOutcome] = []
    # Each frame: (forced prefix, sleep set at the first free decision).
    stack: list[tuple[list[int], frozenset[PendingAction]]] = [
        ([], frozenset())
    ]
    while stack and report.schedules < max_schedules:
        prefix, sleep = stack.pop()
        outcome, controller = _run_once(
            factory, plan, prefix, fingerprint=fingerprints,
            max_steps=max_steps,
        )
        report.runs += 1
        if outcome.schedule not in seen_schedules:
            seen_schedules.add(outcome.schedule)
            report.record(outcome)
            if (
                _is_contract_break(outcome, report.baseline_digest, plan)
                and len(bad) < max_violations
            ):
                bad.append(outcome)

        log = controller.log
        fps = controller.fingerprints
        limit = (
            len(log) if max_depth is None else min(len(log), max_depth)
        )
        schedule = controller.schedule
        cur_sleep = sleep
        for i in range(len(prefix), limit):
            chosen, enabled = log[i]
            chosen_action = next(a for a in enabled if a.rank == chosen)
            fp = fps[i]
            expand = True
            if fingerprints and fp is not None:
                report.states_fingerprinted += 1
                if fp in expanded_fps:
                    report.pruned_fingerprint += 1
                    expand = False
                else:
                    expanded_fps.add(fp)
            if expand:
                sleeping_ranks = {a.rank for a in cur_sleep}
                explored: list[PendingAction] = [chosen_action]
                for alt in enabled:
                    if alt.rank == chosen:
                        continue
                    if sleep_sets and alt.rank in sleeping_ranks:
                        report.pruned_sleep += 1
                        continue
                    child_sleep = frozenset(
                        s
                        for s in set(cur_sleep) | set(explored)
                        if independent_actions(s, alt)
                    )
                    stack.append((schedule[:i] + [alt.rank], child_sleep))
                    explored.append(alt)
            cur_sleep = frozenset(
                s for s in cur_sleep if independent_actions(s, chosen_action)
            )

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
    attempts_factor: int = 4,
) -> ExplorationReport:
    """Seeded random walks until ``n_schedules`` *distinct* schedules.

    Each attempt runs the whole system under a fresh seed; duplicate
    schedules don't count toward the target.  Bounded at
    ``attempts_factor * n_schedules`` attempts, so a system with fewer
    distinct maximal interleavings than requested still terminates.
    """
    factory = _as_factory(system)
    plan = plan or FaultPlan()
    report = ExplorationReport(
        target=target, strategy="walk", faults=plan.describe()
    )
    report.baseline_digest = _baseline_digest(factory, max_steps)
    report.runs += 1
    _measure_frontier(report, factory, max_steps)

    seen_schedules: set[tuple[int, ...]] = set()
    bad: list[ScheduleOutcome] = []
    attempts = 0
    max_attempts = max(1, attempts_factor) * n_schedules
    while report.schedules < n_schedules and attempts < max_attempts:
        tail = RandomPolicy(seed + attempts)
        attempts += 1
        outcome, _ = _run_once(
            factory, plan, (), tail=tail, max_steps=max_steps
        )
        report.runs += 1
        if outcome.schedule in seen_schedules:
            continue
        seen_schedules.add(outcome.schedule)
        report.record(outcome)
        if (
            _is_contract_break(outcome, report.baseline_digest, plan)
            and len(bad) < max_violations
        ):
            bad.append(outcome)

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
    then builds a fresh engine per run, because a ``SIGKILL`` can take
    the engine's worker infrastructure (a loopback daemon hosting the
    rank) down with it — reusing one engine across kill runs is only
    safe for engines that respawn workers per ``run()``.
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
