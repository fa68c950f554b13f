"""Process-level lookup counters for shared topologies.

The serve executor resolves a request's topology through
:mod:`repro.sim.shm` first: the daemon publishes its prewarmed and
uploaded topologies there, so a warm request maps the parent's CSR
instead of building its own.  Each resolution is counted under
``"topologies"`` with :func:`record_lookup`; request manifests, ``/stats``
and run manifests read :func:`cache_counters` to report how warm a
request or run actually was.  Counting never changes results.
"""

from __future__ import annotations

from typing import Dict

from ..obs import metrics as obs_metrics

#: ``name -> {"hits": int, "misses": int}``.
_counters: Dict[str, Dict[str, int]] = {}


def record_lookup(name: str, hit: bool) -> None:
    """Count one lookup, for :func:`cache_counters`."""
    entry = _counters.get(name)
    if entry is None:
        entry = _counters[name] = {"hits": 0, "misses": 0}
    entry["hits" if hit else "misses"] += 1
    # Dual-write into the unified registry; the dict above remains the
    # authoritative view read by manifests and /stats.
    obs_metrics.counter(
        "repro_cache_lookups_total",
        "Shared-topology lookups by registry and outcome",
        ("registry", "outcome"),
    ).labels(registry=name, outcome="hit" if hit else "miss").inc()


def cache_counters() -> Dict[str, Dict[str, int]]:
    """``{name: {"hits", "misses"}}`` for every counted lookup.

    Counters are cumulative for the process; callers wanting per-request
    attribution snapshot before and after (see
    :func:`repro.serve.executor.counters_delta`).
    """
    return {name: dict(entry) for name, entry in _counters.items()}


def reset_cache_counters() -> None:
    """Zero the hit/miss counters (tests and per-worker accounting)."""
    _counters.clear()
