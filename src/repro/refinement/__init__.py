"""The stepwise-refinement framework (paper section 2).

The central artifact is the **sequential simulated-parallel program**
(section 2.2): data partitioned into N simulated address spaces, and a
computation that alternates

* **local-computation blocks** — per-process functions, each touching
  only its own partition, and
* **data-exchange operations** — sets of pure assignments between
  partitions obeying three restrictions: (i) an assignment target is
  referenced by no other assignment; (ii) each side of an assignment
  references a single partition; (iii) every process is assigned at
  least one value.

Such a program runs *sequentially* (so it can be developed and debugged
with sequential tools — the methodology's point), yet it is mechanically
convertible into a message-passing parallel program: each exchange
assignment becomes a send and a receive, with all sends performed before
any receive so no process ever reads an empty channel
(:mod:`~repro.refinement.transform`), and Theorem 1 guarantees the
parallel program computes the same final state.

:mod:`~repro.refinement.checker` provides the testing half of the
methodology — bitwise comparison of program versions — and
:mod:`~repro.refinement.metrics` counts the mechanical edits as an
effort proxy (experiment E7).
"""

from repro.refinement.store import AddressSpace, make_stores
from repro.refinement.dataexchange import Assignment, DataExchange, VarRef
from repro.refinement.program import LocalBlock, SimulatedParallelProgram
from repro.refinement.split import ExchangeBegin, ExchangeEnd, split_exchange
from repro.refinement.transform import to_parallel_system
from repro.refinement.checker import (
    ComparisonReport,
    compare_arrays,
    compare_store_lists,
    compare_stores,
)
from repro.refinement.metrics import TransformationMetrics

__all__ = [
    "AddressSpace",
    "make_stores",
    "VarRef",
    "Assignment",
    "DataExchange",
    "LocalBlock",
    "SimulatedParallelProgram",
    "ExchangeBegin",
    "ExchangeEnd",
    "split_exchange",
    "to_parallel_system",
    "ComparisonReport",
    "compare_stores",
    "compare_arrays",
    "compare_store_lists",
    "TransformationMetrics",
]
