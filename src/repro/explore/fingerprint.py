"""State fingerprinting for schedule-space pruning.

A scheduler-visible *state* of a cooperative run is the pair (all
address spaces, all channel queues): that is exactly the data Theorem 1
quantifies over, and two run prefixes that reach the same state have
identical futures under identical scheduling decisions.  The explorer
therefore hashes this pair at every decision point and prunes a branch
node whose state it has already expanded — stateful model checking on
top of the stateless re-execution substrate.

The fingerprint is a sha256 over the canonical byte encoding of
:mod:`repro.theory.determinacy` (the same canonicalisation behind
``state_digest``), covering per-rank stores plus, per channel, the
cumulative send/receive counters and the queued values oldest-first.
The counters matter: two states with equal queues but different history
lengths differ in how many actions each rank still has ahead, so they
must not be merged.

Soundness caveat (documented, deliberate): variables a body keeps in
Python locals rather than its store are invisible to the fingerprint,
so pruning is exact only for bodies whose scheduler-relevant state
lives in stores and channels — true of every system built by this
library's refinement pipeline, which round-trips all state through
:class:`~repro.refinement.store.AddressSpace` stores.  The explorer
exposes a switch to disable pruning for foreign bodies.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.theory.determinacy import Sha256Stream, _canonical_bytes

__all__ = ["state_fingerprint"]


def state_fingerprint(
    stores: list[dict[str, Any]],
    channels: Mapping[str, Any],
) -> str:
    """Canonical hex digest of a mid-run scheduler-visible state."""
    out = Sha256Stream()
    for store in stores:
        _canonical_bytes(store, out)
    for name in sorted(channels):
        ch = channels[name]
        out.append(name.encode())
        out.append(f"{ch.sends}:{ch.receives}".encode())
        _canonical_bytes(list(ch.snapshot()), out)
    return out.hexdigest()
