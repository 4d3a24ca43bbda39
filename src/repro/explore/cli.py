"""``python -m repro explore`` — drive the schedule-space explorer.

Modes:

* **explore** (default) — run DFS or random-walk exploration of one or
  more named targets on the cooperative engine, print the report
  (``--json FILE`` writes it whole), and dump a replayable JSON
  artifact for every violation found;
* **sweep** (``--engine multiprocess|socket`` + ``--faults``) — run a
  fault plan against a real process engine (kills become genuine
  ``SIGKILL``s), asserting every run ends bitwise-identical or with a
  clean :class:`~repro.errors.ProcessFailedError`;
* **replay** (``--replay FILE``) — re-execute a violation artifact's
  minimal failing prefix deterministically.

Exit status: 0 when every explored target upheld the contract (or,
under ``--expect-violation``, when the expected violation WAS found and
its artifact replays), 1 on contract failure, 2 on usage errors.  The
options are defined with every other command's in :mod:`repro.cli`
(``python -m repro explore --help``).
"""

from __future__ import annotations

import json

__all__ = ["run_explore"]


def _replay(path: str, max_steps: int | None) -> int:
    from repro.explore.report import load_artifact, replay_artifact

    violation = load_artifact(path)
    print(f"replaying {violation.describe()}")
    reproduced, outcome = replay_artifact(violation, max_steps=max_steps)
    print(f"  outcome: {outcome.describe()}")
    print(f"  reproduced: {'yes' if reproduced else 'NO'}")
    return 0 if reproduced else 1


def _sweep(opts, plan) -> int:
    from repro.explore.fixtures import build_target
    from repro.explore.strategies import fault_sweep_engine
    from repro.runtime.engine_cooperative import CooperativeEngine
    from repro.theory.determinacy import state_digest

    if not plan:
        print("--engine sweep mode needs --faults")
        return 2
    bad = 0
    for target in opts.targets:
        factory = build_target(target)
        baseline = state_digest(CooperativeEngine().run(factory()))
        # Engine name, not instance: a fresh engine per run survives
        # SIGKILLed workers taking their daemon down with them.
        outcomes = fault_sweep_engine(
            factory,
            plan,
            opts.engine,
            runs=opts.runs,
            baseline_digest=baseline,
            target=target,
        )
        print(
            f"sweep[{opts.engine}] {target}: {plan.describe()} "
            f"x{opts.runs}"
        )
        for outcome in outcomes:
            print(f"  {outcome.describe()}")
            if not (
                outcome.kind == "ok"
                or (outcome.kind == "crash" and plan.kills)
            ):
                bad += 1
        clean = sum(1 for o in outcomes if o.kind == "crash")
        identical = sum(1 for o in outcomes if o.kind == "ok")
        print(
            f"  {identical} identical final state(s), "
            f"{clean} clean failure(s), "
            f"{len(outcomes) - clean - identical} contract break(s)"
        )
    return 1 if bad else 0


def run_explore(opts) -> int:
    """Run the mode ``opts`` — the ``explore`` subcommand's parsed
    namespace (:func:`repro.cli.main`) — selects; returns the exit
    status."""
    if opts.list:
        from repro.explore.fixtures import list_targets

        for name, desc in sorted(list_targets().items()):
            print(f"  {name:12s} {desc}")
        return 0

    if opts.replay:
        return _replay(opts.replay, opts.max_steps)

    from repro.explore.faults import FaultPlan

    plan = opts.faults or FaultPlan()

    if opts.engine and opts.engine != "cooperative":
        return _sweep(opts, plan)

    from repro.explore.fixtures import build_target
    from repro.explore.report import save_artifact
    from repro.explore.strategies import explore_dfs, explore_walk

    reports = []
    artifacts = []
    for target in opts.targets:
        factory = build_target(target)
        if opts.strategy == "dfs":
            report = explore_dfs(
                factory,
                max_schedules=opts.schedules,
                max_depth=opts.max_depth,
                max_steps=opts.max_steps,
                fingerprints=opts.fingerprints,
                plan=plan,
                target=target,
            )
        else:
            report = explore_walk(
                factory,
                n_schedules=opts.schedules,
                seed=opts.seed,
                max_steps=opts.max_steps,
                plan=plan,
                target=target,
            )
        print(report.summary())
        reports.append(report)
        for i, violation in enumerate(report.violations):
            path = (
                opts.artifact_dir
                / f"{target}-{report.strategy}-{violation.kind}-{i}.json"
            )
            save_artifact(violation, path)
            artifacts.append(path)
            print(f"  artifact: {path}")

    if opts.json:
        opts.json.parent.mkdir(parents=True, exist_ok=True)
        opts.json.write_text(
            json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
        )
        print(f"report JSON: {opts.json}")

    if opts.expect_violation:
        if not artifacts:
            print("expected a violation but every target held")
            return 1
        from repro.explore.report import load_artifact, replay_artifact

        # The conviction must also replay deterministically.
        for path in artifacts:
            reproduced, outcome = replay_artifact(
                load_artifact(path), max_steps=opts.max_steps
            )
            print(
                f"  replay {path.name}: {outcome.describe()} "
                f"reproduced={'yes' if reproduced else 'NO'}"
            )
            if not reproduced:
                return 1
        return 0
    return 1 if artifacts else 0
