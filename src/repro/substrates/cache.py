"""Process-level lookup counters for shared topologies.

The serve executor resolves a request's topology through
:mod:`repro.sim.shm` first: the daemon publishes its prewarmed and
uploaded topologies there, so a warm request maps the parent's CSR
instead of building its own.  Each resolution is counted under
``"topologies"`` with :func:`record_lookup`; request manifests, ``/stats``
and run manifests read :func:`cache_counters` to report how warm a
request or run actually was.  Counting never changes results.

The counts live only in the metrics registry's
``repro_cache_lookups_total`` family, so they include the worker deltas
merged into it.
"""

from __future__ import annotations

from typing import Dict

from ..obs import metrics as obs_metrics

_LOOKUPS = "repro_cache_lookups_total"


def record_lookup(name: str, hit: bool) -> None:
    """Count one lookup, for :func:`cache_counters`."""
    obs_metrics.counter(
        _LOOKUPS, "Shared-topology lookups by registry and outcome",
        ("registry", "outcome"),
    ).labels(registry=name, outcome="hit" if hit else "miss").inc()


def cache_counters() -> Dict[str, Dict[str, int]]:
    """``{name: {"hits", "misses"}}`` for every counted lookup.

    Counters are cumulative for the process; callers wanting per-request
    attribution snapshot before and after (see
    :func:`repro.serve.executor.counters_delta`).
    """
    counters: Dict[str, Dict[str, int]] = {}
    for (name, outcome), count in obs_metrics.REGISTRY.values(
            _LOOKUPS).items():
        entry = counters.setdefault(name, {"hits": 0, "misses": 0})
        entry["hits" if outcome == "hit" else "misses"] += int(count)
    return counters
