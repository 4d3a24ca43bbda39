"""Theorem 1 machinery.

The paper's Theorem 1: *given deterministic processes with no shared
variables except single-reader single-writer channels with infinite
slack, any two maximal interleavings starting in the same initial state
both terminate, in the same final state.*  Its proof permutes one
interleaving into the other without changing the final state.

This package makes the theorem and its proof technique executable:

* :mod:`~repro.theory.events` / :mod:`~repro.theory.happens_before` —
  traces and the dependence (happens-before) relation over them;
* :mod:`~repro.theory.permute` — the constructive permutation of the
  proof: transform one recorded interleaving into another by swapping
  adjacent *independent* actions;
* :mod:`~repro.theory.determinacy` — the empirical statement: run a
  system under many schedules (and under free-running threads) and
  check all final states coincide;
* :mod:`~repro.theory.enumerate` — the one depth-first walk of the
  schedule tree, and with it exhaustive enumeration of *all* maximal
  interleavings of small systems; :mod:`~repro.theory.por` runs the
  same walk with sleep sets, one representative per commutation class;
* :mod:`~repro.theory.violations` — what breaks when each hypothesis is
  dropped (shared variables, multi-writer channels, nondeterministic
  bodies, finite slack).
"""

from repro.theory.events import Event, Trace, trace_keys
from repro.theory.happens_before import HappensBefore
from repro.theory.permute import permute_interleaving, PermutationCertificate
from repro.theory.determinacy import (
    DeterminacyReport,
    check_determinacy,
    state_digest,
)
from repro.theory.enumerate import (
    EnumerationOverflow,
    EnumerationResult,
    enumerate_interleavings,
    walk_schedules,
)
from repro.theory.foata import (
    FoataForm,
    foata_normal_form,
    frontier,
)
from repro.theory.por import enumerate_reduced, independent_actions

__all__ = [
    "Event",
    "Trace",
    "trace_keys",
    "HappensBefore",
    "permute_interleaving",
    "PermutationCertificate",
    "DeterminacyReport",
    "check_determinacy",
    "state_digest",
    "EnumerationOverflow",
    "EnumerationResult",
    "walk_schedules",
    "enumerate_interleavings",
    "FoataForm",
    "foata_normal_form",
    "frontier",
    "enumerate_reduced",
    "independent_actions",
]
