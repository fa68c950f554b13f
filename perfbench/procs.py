"""Process hygiene: a run leaves no process of its own behind.

``repro serve`` can die to a signal before its pool is shut down, which
orphans its workers.  :func:`adopt_orphans` makes this process the
reaper of everything it starts (Linux ``PR_SET_CHILD_SUBREAPER``), so
orphans stay in its process tree; :func:`stop_descendants` then kills
and reaps whatever is left in that tree.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, List, Tuple

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the reaper of orphaned descendants; ``False`` where the
    kernel does not support it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _table() -> Dict[int, Tuple[int, str]]:
    """pid -> (parent pid, state) for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(root: int) -> List[Tuple[int, str]]:
    """(pid, state) of every process below ``root``."""
    children: Dict[int, List[int]] = {}
    table = _table()
    for pid, (parent, _) in table.items():
        children.setdefault(parent, []).append(pid)
    found, stack = [], list(children.get(root, ()))
    while stack:
        pid = stack.pop()
        found.append((pid, table[pid][1]))
        stack.extend(children.get(pid, ()))
    return found


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(timeout_s: float = 30.0) -> List[int]:
    """Kill every process below this one and wait until each has ended.

    Call only when nothing this process started is meant to run on.
    Returns the pids that were still running.
    """
    killed = set()
    deadline = time.monotonic() + timeout_s
    while True:
        _reap()
        left = descendants(os.getpid())
        if not left or time.monotonic() > deadline:
            return sorted(killed)
        for pid, state in left:
            if state != "Z":
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
