"""Multiprocess execution backend: each rank is a real OS process.

The paper's Theorem 1 (deterministic processes + SRSW channels of
infinite slack => every maximal interleaving terminates in the same
final state) is what licenses this package: the *same*
:class:`~repro.runtime.system.System` objects that run on the threaded
and cooperative engines run here on genuinely parallel OS processes,
and the final state must be — and is tested to be — bitwise identical.

Pieces:

* :mod:`~repro.dist.closures` — value-pickling for the dynamic
  functions (closures, lambdas) that process bodies are made of, so a
  body can cross a ``spawn`` process boundary;
* :mod:`~repro.dist.wire` — the message encoding used on cross-process
  channels, with a fast path that ships contiguous NumPy arrays as raw
  buffer-protocol frames (no pickle of array data);
* :mod:`~repro.dist.shm` — ``multiprocessing.shared_memory`` backing
  for process stores, so block-decomposed grid arrays are placed in
  shared segments once instead of being copied through streams, with
  deterministic parent-owned cleanup;
* :mod:`~repro.dist.channels` — SRSW channels over connected stream
  sockets that keep the model's *infinite slack* (sends never block:
  the sender writes the socket itself when that cannot block, and
  otherwise a per-writer feeder thread drains an unbounded local queue
  into it) — one class for a pool's socketpairs and a daemon's TCP
  connections;
* :mod:`~repro.dist.engine` — :class:`MultiprocessEngine`, the third
  execution backend, honouring the same ``System``/``RunResult``
  contract as the threaded and cooperative engines;
* :mod:`~repro.dist.net` — length-prefixed socket framing of the wire
  format (the one byte stream every process-backed engine uses), rank
  rendezvous, the ``python -m repro worker-daemon`` per-host daemon, and
  :class:`~repro.dist.net.engine.SocketEngine`
  (``make_engine("socket")``) — the only backend whose ranks can live
  on different machines;
* :mod:`~repro.dist.serve` — :class:`JobServer`, job-level serving of
  many small systems concurrently on one
  :class:`~repro.dist.pool.WorkerPool`, with bounded backpressure and
  per-job latency/throughput accounting.
"""

from repro.dist.engine import MultiprocessEngine
from repro.dist.serve import JobServer

__all__ = ["MultiprocessEngine", "JobServer"]
