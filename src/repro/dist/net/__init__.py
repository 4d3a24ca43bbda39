"""Cross-host transport: stream framing, rank rendezvous, worker daemons.

This package lets a :class:`~repro.runtime.system.System` span machines
while preserving the paper's channel semantics exactly:

* :mod:`repro.dist.net.frames` — length-prefixed framing of the
  :mod:`repro.dist.wire` format over stream sockets — the one
  cross-process byte stream, a pool's socketpairs and a daemon's TCP
  connections alike — with an explicit goodbye frame so clean writer
  close and writer death are distinguishable (EOF alone cannot tell
  them apart);
* :mod:`repro.dist.net.feeder` — the send core of
  :class:`~repro.dist.channels.SocketChannel`: non-blocking writes from
  the sending thread, an unbounded queue and a feeder thread only under
  back-pressure, which is what keeps channel slack infinite when kernel
  buffers are not;
* :mod:`repro.dist.net.rendezvous` — rank→daemon assignment and the
  hello-frame handshake that connects each channel's writer to its
  reader, with single-shot dials and hard timeouts;
* :mod:`repro.dist.net.daemon` — the per-host worker daemon behind
  ``python -m repro worker-daemon``;
* :mod:`repro.dist.net.engine` — :class:`SocketEngine`
  (``make_engine("socket")``), which dispatches ranks to daemons and
  collects results over control connections.

Imports here are deliberately lazy-friendly: nothing in this package is
loaded unless a socket engine, daemon, or channel stream is actually
used.
"""

from __future__ import annotations

__all__ = [
    "FrameStream",
    "SocketEngine",
    "WorkerDaemon",
]


def __getattr__(name: str):
    if name == "FrameStream":
        from repro.dist.net.frames import FrameStream

        return FrameStream
    if name == "SocketEngine":
        from repro.dist.net.engine import SocketEngine

        return SocketEngine
    if name == "WorkerDaemon":
        from repro.dist.net.daemon import WorkerDaemon

        return WorkerDaemon
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
