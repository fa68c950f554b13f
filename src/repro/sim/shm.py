"""Shared-memory CSR topologies for process-pool sweeps.

``parallel_sweep`` ships work to pool workers by value: the substrate
cache snapshot and every task's parameters are pickled into each worker.
For scalar memos that is cheap; for a million-node topology it is the
dominant cost and the RSS multiplier -- every worker unpickles and holds
its own full copy of ``indptr``/``indices``/``degrees``.

This module keeps exactly one physical copy.  The parent *publishes* a
:class:`~repro.sim.compiled.CompiledNetwork` under a key: its CSR arrays
are copied once into a ``multiprocessing.shared_memory`` segment laid
out as ``[indptr | indices | degrees]`` (native int64 throughout).  Only
the tiny handle (segment name plus shape) travels through the pool
initializer.  Workers *attach* lazily: the first lookup maps the
segment and wraps zero-copy ``memoryview('q')`` slices in a
``CompiledNetwork.from_csr`` -- no bytes are duplicated, and the kernel
code path is unchanged because the compiled network's buffers only need
the buffer protocol.

Keys are the same tuples the streaming generators intern under (e.g.
``("ring-stream", n)``), so :mod:`repro.graphs.streaming` transparently
resolves a published topology before rebuilding it -- a worker whose
measure function calls ``stream_ring(n)`` gets the mapped segment.

Publishing is best-effort: platforms without usable shared memory (or
sandboxes denying ``shm_open``) make :func:`publish` return ``None`` and
sweeps fall back to per-worker rebuilds, trading memory for correctness.

Python 3.8-3.12 ``SharedMemory`` has no ``track=False`` knob, and the
child's resource tracker would otherwise unlink the parent's segment at
worker exit; :func:`_attach` therefore de-registers the mapping from the
worker-side tracker.  The parent owns the lifecycle: segments are
refcounted (:func:`publish` increments, :func:`release` decrements and
unlinks at zero), and whatever is still published is force-unlinked at
interpreter exit.  Long-lived daemons additionally call
:func:`install_signal_cleanup` so a SIGTERM-killed process never leaves
orphan ``/dev/shm`` segments behind -- ``atexit`` alone does not run on
a fatal signal.  A *worker* dying (even ``SIGKILL``) can never leak a
segment: workers only ever map, they never own.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Any, Dict, Hashable, Optional, Tuple

from .compiled import CompiledNetwork

_ITEMSIZE = 8  # native int64, matching array('q') / np.int64

#: Guards the parent-side registries.  A serve supervisor restarting a
#: crashed pool releases topologies from its monitor thread while the
#: request path may be publishing the same key; without the lock the
#: read-decrement-pop sequence in :func:`release` can run twice for one
#: reference and either double-unlink or leak the segment until exit.
_lock = threading.RLock()

#: Parent side: key -> (SharedMemory, handle, original compiled network).
_exported: Dict[Hashable, Tuple[Any, dict, CompiledNetwork]] = {}

#: Parent side: key -> number of outstanding :func:`publish` calls.
_refcounts: Dict[Hashable, int] = {}

#: Signals a cleanup handler has been installed for (idempotence).
_signal_cleanup_installed: Dict[int, Any] = {}

#: Worker side: key -> handle received through the pool initializer.
_handles: Dict[Hashable, dict] = {}

#: Worker side: key -> (SharedMemory, attached compiled network).
_attached: Dict[Hashable, Tuple[Any, CompiledNetwork]] = {}

_cleanup_registered = False


def _as_bytes(buffer) -> bytes:
    """Raw little-endian int64 bytes of an array/memoryview/ndarray."""
    return bytes(memoryview(buffer))


def publish(key: Hashable, compiled: CompiledNetwork) -> Optional[dict]:
    """Copy ``compiled``'s CSR arrays into shared memory under ``key``.

    Returns the picklable handle to ship to workers, or ``None`` when
    shared memory is unusable here (the sweep then degrades to
    per-worker topology rebuilds).  Publishing the same key twice is
    idempotent and returns the existing handle, with the segment's
    refcount incremented: each successful ``publish`` must eventually be
    matched by a :func:`release` (or rely on the exit/signal cleanup --
    sweeps that never release simply keep their segments warm for the
    life of the process).
    """
    global _cleanup_registered
    with _lock:
        existing = _exported.get(key)
        if existing is not None:
            _refcounts[key] = _refcounts.get(key, 0) + 1
            return existing[1]
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - stdlib module
        return None
    n = compiled.n
    nnz = len(compiled.indices)
    size = _ITEMSIZE * ((n + 1) + nnz + n)
    try:
        segment = shared_memory.SharedMemory(create=True, size=max(size, 1))
    except (OSError, PermissionError, ValueError):
        return None
    offset = 0
    for chunk in (compiled.indptr, compiled.indices, compiled.degrees):
        raw = _as_bytes(chunk)
        segment.buf[offset:offset + len(raw)] = raw
        offset += len(raw)
    handle = {"name": segment.name, "n": n, "nnz": nnz}
    with _lock:
        racer = _exported.get(key)
        if racer is not None:
            # Another thread published the same key while we copied;
            # keep theirs, drop ours, count ourselves as a reference.
            _refcounts[key] = _refcounts.get(key, 0) + 1
            handle = racer[1]
            discard = segment
        else:
            _exported[key] = (segment, handle, compiled)
            _refcounts[key] = 1
            discard = None
        if not _cleanup_registered:
            atexit.register(unlink_all)
            _cleanup_registered = True
    if discard is not None:
        try:
            discard.close()
            discard.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass
    return handle


def release(key: Hashable) -> bool:
    """Drop one :func:`publish` reference; unlink the segment at zero.

    Returns True when this call actually unlinked the segment.  Releasing
    an unknown (or already-unlinked) key is a no-op: the exit cleanup may
    legitimately race an explicit release during daemon shutdown.
    """
    with _lock:
        entry = _exported.get(key)
        if entry is None:
            return False
        remaining = _refcounts.get(key, 1) - 1
        if remaining > 0:
            _refcounts[key] = remaining
            return False
        # Pop before touching the segment: a concurrent release (or the
        # exit backstop) then sees an unknown key and no-ops, so the
        # close/unlink pair below runs exactly once per segment.
        _exported.pop(key, None)
        _refcounts.pop(key, None)
    segment = entry[0]
    try:
        segment.close()
        segment.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - best effort
        pass
    return True


def refcount(key: Hashable) -> int:
    """Outstanding publish references for ``key`` (0 when unpublished)."""
    return _refcounts.get(key, 0) if key in _exported else 0


def export_handles() -> Dict[Hashable, dict]:
    """Handles for every published topology (pool-initializer payload)."""
    return {key: entry[1] for key, entry in _exported.items()}


def export_handle(key: Hashable) -> Optional[dict]:
    """The handle published under ``key``, or ``None`` (task payload)."""
    entry = _exported.get(key)
    return entry[1] if entry is not None else None


def receive_handles(handles: Optional[Dict[Hashable, dict]]) -> None:
    """Worker side: remember the parent's handles for lazy attachment."""
    if handles:
        _handles.update(handles)


def _attach_untracked(shared_memory, name: str):
    """Map an existing segment without registering it with the resource
    tracker.

    Only the segment's *owner* may track it: a worker's registration is
    worse than useless either way.  Under ``spawn`` the worker's own
    tracker would unlink the parent's live segment when the worker
    exits; under ``fork`` the tracker process is *shared*, its cache is
    a set, so the worker's register is a no-op and the matching
    ``unregister`` (the historical workaround here) silently deletes
    the parent's entry -- the parent's eventual ``unlink`` then crashes
    the tracker thread with a KeyError traceback on stderr.  Supplying
    ``track=False`` needs Python >= 3.13, so instead the register call
    is stubbed out for the duration of the constructor.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach(handle: dict):
    """Map a published segment and wrap it as a zero-copy topology."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - stdlib module
        return None
    try:
        segment = _attach_untracked(shared_memory, handle["name"])
    except (OSError, PermissionError, FileNotFoundError):
        return None
    n = handle["n"]
    nnz = handle["nnz"]
    view = memoryview(segment.buf)
    bound_indptr = _ITEMSIZE * (n + 1)
    bound_indices = bound_indptr + _ITEMSIZE * nnz
    bound_degrees = bound_indices + _ITEMSIZE * n
    indptr = view[0:bound_indptr].cast("q")
    indices = view[bound_indptr:bound_indices].cast("q")
    degrees = view[bound_indices:bound_degrees].cast("q")
    compiled = CompiledNetwork.from_csr(indptr, indices)
    compiled._degrees = degrees
    return segment, compiled


def lookup(key: Hashable) -> Optional[CompiledNetwork]:
    """The topology published under ``key``, if reachable from here.

    In the parent this is the original compiled network; in a pool
    worker it attaches the shared segment on first use and returns the
    mapped view afterwards.  ``None`` means "not published" -- callers
    build the topology themselves.
    """
    exported = _exported.get(key)
    if exported is not None:
        return exported[2]
    cached = _attached.get(key)
    if cached is not None:
        return cached[1]
    handle = _handles.get(key)
    if handle is None:
        return None
    mapping = _attach(handle)
    if mapping is None:
        return None
    # Keep the SharedMemory object alive alongside its memoryviews.
    _attached[key] = mapping
    return mapping[1]


def segment_bytes(key: Hashable) -> Optional[int]:
    """Size in bytes of the published segment for ``key`` (parent side)."""
    entry = _exported.get(key)
    return entry[0].size if entry is not None else None


def published_keys() -> Tuple[Hashable, ...]:
    """Keys currently published by this process."""
    return tuple(_exported)


def unlink_all() -> None:
    """Parent side: close and unlink every published segment.

    Force-drops all refcounts -- this is the exit/signal backstop, not
    the polite path (:func:`release` is).
    """
    with _lock:
        _refcounts.clear()
        doomed = list(_exported.values())
        _exported.clear()
    for segment, _handle, _compiled in doomed:
        try:
            segment.close()
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass


def install_signal_cleanup(signums: Optional[Tuple[int, ...]] = None) -> Tuple[int, ...]:
    """Unlink published segments when a fatal signal arrives.

    ``atexit`` does not run when the process dies to SIGTERM, so a
    killed daemon would leak its ``/dev/shm`` segments until reboot.
    This installs a handler (default: SIGTERM, plus SIGHUP where it
    exists) that unlinks everything, restores the previous disposition,
    and re-raises the signal so the process still dies with the normal
    signal exit status.  Idempotent; returns the signals actually
    hooked.  Only the segment *owner* (the daemon / sweep parent) should
    call this -- workers have nothing to unlink.
    """
    try:
        import signal
    except ImportError:  # pragma: no cover - stdlib module
        return ()
    if signums is None:
        signums = (signal.SIGTERM,) + (
            (signal.SIGHUP,) if hasattr(signal, "SIGHUP") else ()
        )

    def _cleanup_and_reraise(signum, frame):
        unlink_all()
        previous = _signal_cleanup_installed.get(signum, signal.SIG_DFL)
        if callable(previous):
            previous(signum, frame)
            return
        signal.signal(signum, previous if previous is not None
                      else signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    hooked = []
    for signum in signums:
        if signum in _signal_cleanup_installed:
            hooked.append(signum)
            continue
        try:
            previous = signal.signal(signum, _cleanup_and_reraise)
        except (OSError, ValueError):  # pragma: no cover - non-main thread
            continue
        _signal_cleanup_installed[signum] = previous
        hooked.append(signum)
    return tuple(hooked)


def _reset_worker_state() -> None:
    """Forget worker-side handles/attachments (tests only)."""
    _handles.clear()
    _attached.clear()
