"""The shared inline-write-plus-feeder core of infinite-slack senders.

A cross-process channel (:class:`~repro.dist.channels.SocketChannel`)
writes a stream socket with a finite kernel buffer, so a raw write
could block once the reader falls behind, and a balanced exchange
pattern that is deadlock-free in the paper's infinite-slack model could
then deadlock in practice.  The cure lives here — the never-blocking
half of the channel's storage (its ``_put``; the contract above it is
:class:`repro.runtime.channel.ChannelCore`'s):

* **Fast path — the sender's own thread is the data plane.**  Channels
  are single-writer and Theorem 1 makes the final state independent of
  *which thread* performs a write, so while nothing is pending
  :meth:`SendFeeder.put` hands the item to the transport's
  non-blocking ``try_write`` hook and the bytes enter the kernel before
  ``put`` returns — no queue, no thread hop, no feeder thread at all.
* **Slow path — back-pressure.**  Whatever ``try_write`` could not
  place without blocking (the whole item, or the unsent tail of a
  partial write) appends to an unbounded in-process queue — exactly the
  semantics of :class:`repro.runtime.channel.Channel` — and a
  per-channel feeder thread, started on that first would-block, drains
  the queue with blocking writes.  Every later item queues behind it
  (FIFO) until the backlog is gone, then sends go inline again.

The two threads never write concurrently: the sender writes only while
``queued == written`` — two single-writer counters, so no lock is
needed — and the feeder publishes ``written`` only after its blocking
write returned.

Shutdown is idempotent and thread-safe: however many times (and from
however many threads) :meth:`close` is called, the close sentinel is
enqueued once, the feeder is joined once, and the transport's finisher
(send the goodbye frame, close the socket) runs exactly once —
including when every send went inline and the thread never started.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from repro.errors import TransportError

__all__ = ["SendFeeder", "running_feeder_threads"]

_CLOSE = object()
_THREAD_PREFIX = "feed-"

#: What a vanished reader looks like to a writer, inline or in the
#: feeder thread: the transport is broken and the rest is discarded.
_BROKEN = (BrokenPipeError, ConnectionError, OSError, TransportError)


def running_feeder_threads() -> int:
    """How many feeder threads are alive in this process right now —
    zero unless some channel is (or just was) under back-pressure."""
    return sum(
        t.name.startswith(_THREAD_PREFIX) for t in threading.enumerate()
    )


class SendFeeder:
    """Inline non-blocking writes backed by an unbounded queue drained
    into the transport by a daemon thread.

    Parameters
    ----------
    name:
        Thread name suffix (shown in stack dumps as ``feed-<name>``).
    write:
        Called in the feeder thread with each queued item; may block on
        kernel backpressure.  A raised ``BrokenPipeError`` /
        ``ConnectionError`` / ``OSError`` / :class:`~repro.errors.
        TransportError` stops the drain — the reader went away, and the
        undeliverable remainder is discarded (the threaded engine
        likewise leaves undrained values queued).
    finish:
        Called exactly once, after the drain ends (flush, close, or
        broken transport): the transport's end-of-stream action —
        sending the clean-close goodbye frame and closing the socket.
        Errors are swallowed; by this point the
        peer may already be gone.
    try_write:
        Optional non-blocking form of ``write``, called in the *sending*
        thread while nothing is pending.  Returns ``None`` when the
        whole item entered the kernel, else what is left to write — the
        item itself, or the unsent tail of a partial write — which is
        queued for ``write``.  Must never block.  A
        broken transport is handled exactly as in the feeder thread:
        swallowed, later items discarded, finisher left to
        :meth:`close`.  When ``None``, every item is queued.
    """

    __slots__ = (
        "_name",
        "_write",
        "_try_write",
        "_finish",
        "_queue",
        "_thread",
        "_lock",
        "_closed",
        "_broken",
        "_queued",
        "_written",
    )

    def __init__(
        self,
        name: str,
        write: Callable[[Any], None],
        finish: Callable[[], None],
        try_write: Callable[[Any], Any] | None = None,
    ):
        self._name = name
        self._write = write
        self._try_write = try_write
        self._finish = finish
        self._queue: queue.Queue | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._broken = False
        # Items handed to the queue (sender-only) and items the feeder
        # finished writing (feeder-only): equal means the feeder is idle
        # and the sender may write the transport itself.
        self._queued = 0
        self._written = 0

    @property
    def pending(self) -> int:
        """Queued items the feeder thread has not finished writing."""
        return self._queued - self._written

    def _run(self) -> None:
        q = self._queue
        while True:
            item = q.get()
            if item is _CLOSE:
                break
            try:
                self._write(item)
            except _BROKEN:
                self._broken = True
                break
            # Published only after the blocking write returned: from
            # here the sender may write inline again.
            self._written += 1
        self._do_finish()

    def _do_finish(self) -> None:
        try:
            self._finish()
        except _BROKEN:
            pass

    def put(self, item: Any) -> None:
        """Send one item; never blocks.

        Written inline when nothing is pending and ``try_write`` takes
        it; otherwise (or for what ``try_write`` left over) queued for
        the feeder thread, which starts on this first back-pressure.
        """
        if self._closed:
            raise RuntimeError(f"send on closed feeder {self._name!r}")
        if self._broken:
            return  # reader gone: discard, like the drain does
        if self._try_write is not None and not self.pending:
            try:
                item = self._try_write(item)
            except _BROKEN:
                self._broken = True
                return
            if item is None:
                return
        if self._thread is None:
            with self._lock:
                if self._closed:
                    raise RuntimeError(f"send on closed feeder {self._name!r}")
                if self._thread is None:
                    self._queue = queue.Queue()
                    self._thread = threading.Thread(
                        target=self._run,
                        name=_THREAD_PREFIX + self._name,
                        daemon=True,
                    )
                    # Publish the queue before the thread reads it.
                    self._thread.start()
        self._queued += 1
        self._queue.put(item)

    def close(self) -> None:
        """Flush queued items and run the finisher.  Idempotent.

        Safe to call from several threads at once and repeatedly: one
        caller performs the flush-and-join (a dead reader breaks the
        transport rather than blocking the join forever); the rest
        return immediately.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._queue.put(_CLOSE)
            thread.join()
        else:
            # Every send went inline (or nothing was ever sent): still
            # run the end-of-stream action so the reader sees a clean
            # close instead of a hang.
            self._do_finish()
