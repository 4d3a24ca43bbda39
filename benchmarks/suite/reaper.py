"""Leave no process behind, on any path out of a run.

The engines fork pool workers and loopback daemons, and the first
shared-memory segment starts multiprocessing's resource tracker, which
by design outlives the interpreter that started it: it only exits once
every holder of its pipe is gone.  A benchmark run must not end while
any of them is alive, so the process that runs a workload

1. makes itself a *child subreaper* (``prctl``): a grandchild whose
   parent dies is handed to this process instead of to init, so it can
   still be found, killed and waited for;
2. before it exits, closes the tracker's pipe, gives every remaining
   child a moment to end on its own, kills the rest, and waits for each.

Stdlib only and cheap to import: ``run.py`` uses it in suite mode too,
where the program under test is never imported.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker

PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>

#: How long children that are already on their way out get before SIGKILL,
#: and how long a killed one gets to disappear before it is given up on.
GRACE_S = 2.0
KILL_WAIT_S = 5.0


def become_subreaper() -> bool:
    """Have orphaned descendants reparented to this process.  ``False``
    where the kernel or libc cannot do it; direct children are still
    reaped then."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> dict[int, str]:
    """``pid -> command line`` of every child of this process, zombies
    included."""
    me = str(os.getpid())
    out = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
            with open(f"/proc/{pid}/cmdline") as f:
                cmdline = f.read().replace("\0", " ").strip()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces.
        if stat.rsplit(")", 1)[1].split()[1] == me:
            out[int(pid)] = cmdline or "?"
    return out


def tracker_pid() -> int | None:
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def _release_tracker() -> None:
    """Close this process's end of the resource tracker's pipe; the
    tracker exits when the last holder has (forked children inherit the
    descriptor, which is why they go first)."""
    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)
        tracker._fd = None
        tracker._pid = None


def reap_all(grace_s: float = GRACE_S) -> list[str]:
    """End and wait for every descendant.  Returns ``pid:command`` of
    those that had to be killed (none after a clean tear-down)."""
    killed: dict[int, str] = {}
    for proc in multiprocessing.active_children():
        killed[proc.pid] = proc.name
        proc.kill()
        proc.join(KILL_WAIT_S)
    _release_tracker()
    patient_until = time.monotonic() + grace_s
    give_up_at = patient_until + KILL_WAIT_S
    while time.monotonic() < give_up_at:
        kids = children()
        if not kids:
            break
        for pid, cmdline in kids.items():
            try:
                if time.monotonic() > patient_until and pid not in killed:
                    killed[pid] = cmdline
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.005)
    return [f"{pid}:{cmdline}" for pid, cmdline in killed.items()]
