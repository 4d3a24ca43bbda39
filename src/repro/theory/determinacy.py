"""Empirical determinacy checking — Theorem 1 as an experiment.

Theorem 1 quantifies over *all* maximal interleavings; this module
samples them.  :func:`check_determinacy` executes a system under

* a battery of cooperative schedules (round-robin, run-to-block,
  sends-first, and many seeded random policies), and
* optionally the free-running threaded engine (several repetitions —
  each OS run is some fair interleaving we do not control),

then canonicalises each final state (stores + return values) to a
digest and reports whether all runs agreed.  For conforming systems the
report's ``determinate`` flag is True; the deliberately broken systems
of :mod:`repro.theory.violations` make it False.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.runtime.engine_cooperative import CooperativeEngine
from repro.runtime.engine_threaded import ThreadedEngine
from repro.runtime.schedulers import (
    RandomPolicy,
    RoundRobinPolicy,
    RunToBlockPolicy,
    SchedulingPolicy,
    SendsFirstPolicy,
)
from repro.runtime.system import RunResult, System

__all__ = ["state_digest", "DeterminacyReport", "check_determinacy"]


class Sha256Stream:
    """SHA-256 of ``b"\\x00".join(pieces)``, fed a piece at a time.

    :func:`_canonical_bytes` appends its pieces here as it would to a
    list, and the hash sees the same byte stream the joined list would
    be, without the list or the join.
    """

    __slots__ = ("hash", "_update", "_sep")

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self._update = self.hash.update
        self._sep = b""

    def append(self, piece: bytes) -> None:
        self._update(self._sep)
        self._update(piece)
        self._sep = b"\x00"

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


#: ``str(dtype)`` encoded, per dtype: the name is the same for every
#: array of a dtype, so it is encoded once.
_DTYPE_BYTES: dict[np.dtype, bytes] = {}


def _canonical_bytes(value: Any, out: list[bytes] | Sha256Stream) -> None:
    """Serialise a store value into a canonical byte stream."""
    # bool first: it is an int subclass, and ``True`` must not read as 1.
    if isinstance(value, (bool, np.bool_)):
        out.append(b"b1" if value else b"b0")
    elif isinstance(value, np.ndarray):
        dtype = value.dtype
        name = _DTYPE_BYTES.get(dtype)
        if name is None:
            name = _DTYPE_BYTES[dtype] = str(dtype).encode()
        out.append(b"A")
        out.append(name)
        out.append(str(value.shape).encode())
        out.append(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (np.floating, float)):
        out.append(b"F")
        out.append(np.float64(value).tobytes())
    elif isinstance(value, (np.integer, int)):
        out.append(b"I")
        out.append(str(int(value)).encode())
    elif isinstance(value, str):
        out.append(b"S")
        out.append(value.encode())
    elif isinstance(value, bytes):
        out.append(b"B")
        out.append(value)
    elif value is None:
        out.append(b"N")
    elif isinstance(value, dict):
        out.append(b"D")
        for k in sorted(value, key=repr):
            out.append(repr(k).encode())
            _canonical_bytes(value[k], out)
    elif isinstance(value, (list, tuple)):
        out.append(b"L")
        out.append(str(len(value)).encode())
        for v in value:
            _canonical_bytes(v, out)
    else:
        out.append(b"R")
        out.append(repr(value).encode())


def state_digest(result: RunResult) -> str:
    """Canonical hex digest of a run's final state (stores + returns).

    Two runs have equal digests iff their final states are bitwise
    identical (up to the canonicalisation of container ordering).
    """
    out = Sha256Stream()
    for store in result.stores:
        _canonical_bytes(store, out)
    _canonical_bytes(list(result.returns), out)
    return out.hexdigest()


@dataclass
class DeterminacyReport:
    """Outcome of a determinacy experiment over one system."""

    runs: int = 0
    digests: dict[str, int] = field(default_factory=dict)  # digest -> count
    schedules_seen: int = 0
    distinct_schedules: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def determinate(self) -> bool:
        """True iff every run terminated and produced the same state."""
        return not self.errors and len(self.digests) == 1

    def summary(self) -> str:
        verdict = "DETERMINATE" if self.determinate else "NOT determinate"
        lines = [
            f"{verdict}: {self.runs} runs, "
            f"{len(self.digests)} distinct final state(s), "
            f"{self.distinct_schedules}/{self.schedules_seen} distinct "
            "schedules observed",
        ]
        for digest, count in sorted(self.digests.items()):
            lines.append(f"  state {digest[:12]}…  x{count}")
        for err in self.errors:
            lines.append(f"  run failed: {err}")
        return "\n".join(lines)


def default_policies(n_random: int, seed0: int = 0) -> list[SchedulingPolicy]:
    """The standard cooperative-schedule battery."""
    policies: list[SchedulingPolicy] = [
        RoundRobinPolicy(),
        RunToBlockPolicy(),
        SendsFirstPolicy(),
    ]
    policies.extend(RandomPolicy(seed=seed0 + k) for k in range(n_random))
    return policies


def check_determinacy(
    system_factory: Callable[[], System] | System,
    n_random: int = 12,
    threaded_runs: int = 3,
    seed0: int = 0,
    policies: list[SchedulingPolicy] | None = None,
    max_actions: int | None = None,
) -> DeterminacyReport:
    """Run a system under many interleavings and compare final states.

    ``system_factory`` may be a ready :class:`System` (systems are
    reusable: engines build fresh run state each time) or a zero-arg
    callable producing one.

    A run that raises contributes an error entry instead of a digest;
    ``determinate`` is then False — non-termination under *some* legal
    schedule is itself a Theorem 1 violation.
    """
    factory = system_factory if callable(system_factory) else (lambda: system_factory)
    report = DeterminacyReport()
    schedules: set[tuple[int, ...]] = set()

    for policy in policies if policies is not None else default_policies(n_random, seed0):
        engine = CooperativeEngine(policy, trace=True, max_actions=max_actions)
        report.runs += 1
        try:
            result = engine.run(factory())
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            report.errors.append(f"{type(policy).__name__}: {exc}")
            continue
        digest = state_digest(result)
        report.digests[digest] = report.digests.get(digest, 0) + 1
        # Only a run that got this far produced a schedule to count.
        schedules.add(tuple(result.schedule))
        report.schedules_seen += 1

    for k in range(threaded_runs):
        report.runs += 1
        try:
            result = ThreadedEngine().run(factory())
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            report.errors.append(f"threaded[{k}]: {exc}")
            continue
        digest = state_digest(result)
        report.digests[digest] = report.digests.get(digest, 0) + 1

    report.distinct_schedules = len(schedules)
    return report
