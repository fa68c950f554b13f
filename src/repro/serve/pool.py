"""Pool supervision: keep a warm :class:`WorkerPool` alive across faults.

The daemon's throughput story rests on one process-lifetime pool whose
workers hold the warm state (frozen engine, attached shm topologies).
The supervisor wraps that pool with the two things a long-running
service needs on top:

* **restart on breakage** -- a worker killed mid-task breaks a
  ``ProcessPoolExecutor`` permanently; the supervisor builds a
  replacement pool, republishes its topologies (refcounts keep the
  segments alive across the handover), and only then closes the broken
  one.  The requests in flight on the broken pool fail; the service
  does not.
* **stable identity for /stats** -- occupancy counters, restart count
  and warmup cost survive across restarts.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Mapping, Optional

from ..sim import shm
from ..sim.parallel import PoolUnavailable, WorkerPool
from .executor import execute_batch_metrics
from .schema import topology_key


class PoolSupervisor:
    """Owns the request pool for a daemon's whole lifetime."""

    def __init__(self, workers: Optional[int] = None,
                 engine: Optional[str] = None,
                 mode: str = "process"):
        self._workers = workers
        self._requested_engine = engine
        self._mode = mode
        self._lock = threading.Lock()
        self._topologies: Dict[Hashable, Any] = {}
        self.restarts = 0
        self.pool = WorkerPool(max_workers=workers, engine=engine,
                               mode=mode)

    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """The engine frozen into the workers (stable across restarts)."""
        return self.pool.engine

    def warm(self) -> float:
        """Spawn workers now; returns warmup seconds (see ``WorkerPool``)."""
        return self.pool.warm()

    def add_topologies(self, topologies: Mapping[Hashable, Any]
                       ) -> Dict[Hashable, dict]:
        """Publish topologies and remember them for pool restarts."""
        with self._lock:
            self._topologies.update(topologies)
            return self.pool.add_topologies(topologies)

    def submit(self, spec: Dict[str, Any]):
        """Dispatch one request; returns a concurrent Future.

        Ships the shm handle of the request's own topology, when
        published, so workers spawned before a late publication still
        attach it.  A dead pool raises
        :class:`~repro.sim.parallel.PoolUnavailable`; the caller decides
        whether to :meth:`restart` (which blocks while the new pool
        warms).
        """
        key = topology_key(spec["topology"])
        handle = shm.export_handle(key)
        handles = {key: handle} if handle is not None else None
        return self.pool.submit(execute_batch_metrics, spec, handles)

    def restart(self, broken: Optional[WorkerPool] = None) -> None:
        """Replace a broken pool with a fresh warm one.

        The new pool re-publishes the supervisor's topologies *before*
        the old pool is closed, so the shm refcounts never touch zero
        and the segments stay mapped throughout the handover.  Given the
        ``broken`` pool a request failed on, this does nothing once that
        pool has been replaced: every request in flight on a dead pool
        fails at once, and one restart serves their retries.
        """
        with self._lock:
            if broken is not None and self.pool is not broken:
                return
            old = self.pool
            replacement = WorkerPool(
                max_workers=self._workers,
                engine=self._requested_engine or old.engine,
                mode=self._mode,
            )
            if self._topologies:
                replacement.add_topologies(self._topologies)
            self.pool = replacement
            self.restarts += 1
        old.close()
        try:
            replacement.warm()
        except PoolUnavailable:  # pragma: no cover - thread fallback path
            pass

    def stats(self) -> Dict[str, Any]:
        snapshot = self.pool.stats()
        snapshot["restarts"] = self.restarts
        return snapshot

    def close(self) -> None:
        self.pool.close()
