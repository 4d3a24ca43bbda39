"""Foata normal form: the canonical representative of an interleaving class.

Theorem 1's proof shows any two maximal interleavings of a conforming
system are permutations of each other through independent adjacent
swaps — in trace-theory terms, all its executions belong to a *single
Mazurkiewicz trace* (equivalence class of interleavings modulo
independent commutation).  The **Foata normal form** is that class's
canonical representative: the unique decomposition of the partial order
into maximal antichain layers, each layer being the set of events all
of whose dependence predecessors lie in earlier layers.

This gives a third, structural formulation of the determinacy
experiments:

* every recorded interleaving of a conforming system has the **same**
  Foata normal form (:func:`foata_normal_form` is schedule-invariant);
* the number of layers is the system's **critical path length** in
  actions — a lower bound on any execution's makespan, reported by the
  archetype ablations;
* the widest layer is the peak available parallelism
  (:attr:`FoataForm.width`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.trace import Trace
from repro.theory.events import trace_keys
from repro.theory.happens_before import HappensBefore

__all__ = ["FoataForm", "foata_normal_form"]

#: a layer: sorted tuple of position-independent event keys (rank, local)
Layer = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FoataForm:
    """The canonical layered decomposition of one execution's actions."""

    layers: tuple[Layer, ...]

    @property
    def depth(self) -> int:
        """Number of layers == dependence critical path in actions."""
        return len(self.layers)

    @property
    def width(self) -> int:
        """Largest layer == peak available parallelism."""
        return max((len(layer) for layer in self.layers), default=0)

    @property
    def total_events(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def describe(self) -> str:
        lines = [
            f"Foata normal form: {self.total_events} events in "
            f"{self.depth} layers (peak width {self.width})"
        ]
        for i, layer in enumerate(self.layers):
            events = " ".join(f"P{r}#{k}" for r, k in layer)
            lines.append(f"  layer {i:3d}: {events}")
        return "\n".join(lines)


def foata_normal_form(trace: Trace) -> FoataForm:
    """Canonical layering of a recorded execution.

    Layer 0 holds the events with no happens-before predecessor; layer
    ``i+1`` the events all of whose predecessors sit in layers
    ``<= i`` with at least one in layer ``i``.  Keys are position
    independent (``(rank, local_index)``), so two interleavings of the
    same actions yield *equal* forms iff they are trace-equivalent —
    for conforming systems, always.
    """
    n = len(trace)
    hb = HappensBefore(trace)
    keys = trace_keys(trace)
    # longest-path layer index per event
    layer_of = [0] * n
    for j in range(n):  # trace order is a linear extension
        best = 0
        for i in range(j):
            if hb.precedes(i, j):
                best = max(best, layer_of[i] + 1)
        layer_of[j] = best
    depth = max(layer_of, default=-1) + 1
    layers: list[list[tuple[int, int]]] = [[] for _ in range(depth)]
    for pos, layer in enumerate(layer_of):
        layers[layer].append(keys[pos])
    return FoataForm(tuple(tuple(sorted(layer)) for layer in layers))


def frontier(trace: Trace) -> Layer:
    """Layer 0 of the Foata form: the events with no dependence
    predecessor — exactly the actions a maximal interleaving may
    legally *start* with.

    The schedule explorer measures frontier coverage against this: the
    distinct first actions over all visited schedules, divided by the
    frontier width, is a cheap structural check that the search is
    actually spreading over the interleaving space rather than
    revisiting one corner of it.
    """
    form = foata_normal_form(trace)
    return form.layers[0] if form.layers else ()
