"""Process-level substrate caches shared across trials and workers.

Benchmark sweeps and repeated trials re-derive the same small objects
over and over: primality of the same field sizes, the same recoloring
schedules for the same ``(q, avoid)`` / ``(q, alpha)`` parameters, and
polynomial evaluation tables for the same ``(q, m, k)`` families.  All of
these are *pure* -- they depend only on their arguments -- so this module
keeps one named registry per kind of derived object for the lifetime of
the process.

Two consumers build on the registries:

* :mod:`repro.substrates.cover_free` memoizes ``is_prime`` /
  ``next_prime`` / schedule construction and hands out shared
  :class:`~repro.substrates.cover_free.PolynomialFamily` instances whose
  evaluation memos stay warm across trials;
* :mod:`repro.sim.parallel` ships a :func:`snapshot` of the parent's
  registries to every process-pool worker so warm caches survive the
  process boundary instead of being rebuilt per worker.

Like the payload memo tables in :mod:`repro.sim.message`, everything here
is disabled by ``REPRO_SIM_CACHE=0`` (one knob for every process-level
memo in the repository).  Caching never changes results -- only how often
the pure derivations run.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, Dict, Optional

from ..obs import metrics as obs_metrics
from ..sim.message import CACHE_ENV

#: Safety valve mirroring the payload memo tables: a registry that hits
#: this size is cleared rather than growing without bound.
REGISTRY_LIMIT = 1 << 16

#: Much smaller cap for registries whose *values* are heavy ndarrays --
#: currently the ``(q, m)`` polynomial value tables exported by
#: :meth:`repro.substrates.cover_free.PolynomialFamily.value_table` for
#: the NumPy kernel backend.  Each entry can be megabytes, and
#: :func:`snapshot` ships every entry to every pool worker, so the cap
#: bounds both resident memory and the worker-initializer payload.
ARRAY_REGISTRY_LIMIT = 64

#: Directory for the persistent spill file; unset means "no disk cache".
CACHE_DIR_ENV = "REPRO_SIM_CACHE_DIR"

#: Bumped whenever the registry key/value conventions change shape; a
#: file with a different version is ignored (cold start), never migrated.
CACHE_FILE_VERSION = 1

_CACHE_FILE_NAME = "substrate_cache.pkl"

_enabled = os.environ.get(CACHE_ENV, "1") != "0"

#: ``registry name -> {key -> derived object}``.  Registries are created
#: on first use so this module stays agnostic of what is cached.
_registries: Dict[str, Dict[Any, Any]] = {}

#: ``registry name -> {"hits": int, "misses": int}``.  Consumers that
#: want their lookups observable call :func:`record_lookup`; the serve
#: daemon and run manifests read :func:`cache_counters` to report how
#: warm a request or run actually was.
_counters: Dict[str, Dict[str, int]] = {}

#: What :func:`load_from_disk` / :func:`save_to_disk` last did, for
#: ``/stats`` and manifests (the difference between "no disk cache
#: configured" and "configured but cold" matters operationally).
_disk_state: Dict[str, Any] = {"path": None, "loaded": False, "saved": False}


def cache_enabled() -> bool:
    """Whether the substrate registries are active."""
    return _enabled


def set_cache_enabled(enabled: bool) -> bool:
    """Toggle the registries (tests only); returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    if not enabled:
        clear_substrate_cache()
    return previous


def registry(name: str, limit: int = REGISTRY_LIMIT) -> Dict[Any, Any]:
    """The named memo table (created empty on first use).

    Callers own the key/value convention of their registry; this module
    only provides the shared lifecycle (clear / snapshot / restore) and
    the ``REPRO_SIM_CACHE`` switch.  Callers should check
    :func:`cache_enabled` before reading or writing.  ``limit`` caps the
    table size rather than letting it grow without bound: a full table
    drops its oldest entries (dict insertion order) to make room for one
    more, so the newest stay warm.  Registries holding heavy values (e.g.
    the interned networks with their compiled CSR topologies) pass a
    much smaller cap than the default, which is sized for scalar
    derivations.
    """
    table = _registries.get(name)
    if table is None:
        table = _registries[name] = {}
    while len(table) >= limit:
        del table[next(iter(table))]
    return table


def record_lookup(name: str, hit: bool) -> None:
    """Count one registry lookup, for :func:`cache_counters`.

    Instrumented at the consumer (e.g. ``shared_family``) rather than in
    :func:`registry`, because only the consumer knows whether its
    ``get`` was a hit.  Counting is unconditional on cache state so a
    disabled cache shows up as all-misses, not as silence.
    """
    entry = _counters.get(name)
    if entry is None:
        entry = _counters[name] = {"hits": 0, "misses": 0}
    entry["hits" if hit else "misses"] += 1
    # Dual-write into the unified registry; the dict above remains the
    # authoritative view read by manifests and /stats.
    obs_metrics.counter(
        "repro_cache_lookups_total",
        "Substrate-cache lookups by registry and outcome",
        ("registry", "outcome"),
    ).labels(registry=name, outcome="hit" if hit else "miss").inc()


def cache_counters() -> Dict[str, Dict[str, int]]:
    """``{registry name: {"hits", "misses"}}`` for every counted lookup.

    Counters are cumulative for the process; callers wanting per-request
    attribution snapshot before and after (see
    :func:`repro.serve.executor.counters_delta`).
    """
    return {name: dict(entry) for name, entry in _counters.items()}


def reset_cache_counters() -> None:
    """Zero the hit/miss counters (tests and per-worker accounting)."""
    _counters.clear()


def disk_state() -> Dict[str, Any]:
    """What the persistent spill last did in this process."""
    return dict(_disk_state)


def clear_substrate_cache() -> None:
    """Drop every cached derivation (all registries, kept registered)."""
    for table in _registries.values():
        table.clear()


def registry_sizes() -> Dict[str, int]:
    """``{registry name: entry count}`` for every non-empty registry.

    Run manifests (:mod:`repro.obs.manifest`) record this so a benchmark
    artifact states how warm its caches were -- the difference between a
    cold-start and a warm-cache measurement is otherwise invisible.
    """
    return {
        name: len(table) for name, table in _registries.items() if table
    }


def snapshot() -> Dict[str, Dict[Any, Any]]:
    """A picklable copy of every registry's current contents.

    Values are shared, not deep-copied: cached objects are immutable by
    convention (schedules, families whose memos only ever grow), and the
    pickling boundary of a process pool deep-copies anyway.
    """
    return {name: dict(table) for name, table in _registries.items() if table}


def restore(state: Dict[str, Dict[Any, Any]]) -> None:
    """Merge a :func:`snapshot` into this process's registries.

    Used by process-pool workers to start from the parent's warm caches.
    Existing entries are kept (the union is taken, snapshot entries win);
    a ``None`` or empty state is a no-op, and restoring while caching is
    disabled is also a no-op.
    """
    if not state or not _enabled:
        return
    for name, table in state.items():
        registry(name).update(table)


# ----------------------------------------------------------------------
# Persistent on-disk spill
# ----------------------------------------------------------------------
def cache_file_path(path: Optional[str] = None) -> Optional[str]:
    """The spill file location: explicit ``path``, else
    ``$REPRO_SIM_CACHE_DIR/substrate_cache.pkl``, else ``None`` (off).
    """
    if path is not None:
        return path
    directory = os.environ.get(CACHE_DIR_ENV)
    if not directory:
        return None
    return os.path.join(directory, _CACHE_FILE_NAME)


def save_to_disk(path: Optional[str] = None) -> Optional[str]:
    """Spill the current registries to the versioned cache file.

    Lets *cold processes* -- not just pool workers -- start with warm
    schedules, prime tables, and polynomial families across benchmark
    invocations.  Returns the file path, or ``None`` when nothing was
    written (caching disabled, no directory configured, empty
    registries, or an unwritable destination -- the cache is an
    optimization, so I/O failures degrade to a cold start, silently).

    The write is atomic (temp file + ``os.replace``): a concurrent
    benchmark reading the file mid-save sees the old complete state,
    never a torn one.
    """
    destination = cache_file_path(path)
    if destination is None or not _enabled:
        return None
    state = snapshot()
    if not state:
        return None
    payload = {"version": CACHE_FILE_VERSION, "registries": state}
    try:
        os.makedirs(os.path.dirname(destination) or ".", exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(destination) or ".",
            prefix=_CACHE_FILE_NAME + ".",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, destination)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
    except (OSError, pickle.PicklingError):
        return None
    _disk_state.update(path=destination, saved=True)
    return destination


def load_from_disk(path: Optional[str] = None) -> bool:
    """Warm the registries from the cache file; True when anything loaded.

    Missing, corrupt, wrong-version, or wrong-shape files are treated as
    a cold start (False) -- a stale spill from an older code revision
    must never poison a run.  Loaded entries merge like :func:`restore`
    (union, file entries win); disabled caching is a no-op.
    """
    source = cache_file_path(path)
    if source is None or not _enabled:
        return False
    _disk_state.update(path=source, loaded=False)
    try:
        with open(source, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError, TypeError):
        return False
    if not isinstance(payload, dict):
        return False
    if payload.get("version") != CACHE_FILE_VERSION:
        return False
    state = payload.get("registries")
    if not isinstance(state, dict):
        return False
    for name, table in state.items():
        if not isinstance(name, str) or not isinstance(table, dict):
            return False
    if not state:
        return False
    restore(state)
    _disk_state["loaded"] = True
    return True
