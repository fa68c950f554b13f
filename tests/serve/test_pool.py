"""Tests for WorkerPool lifecycle and its serve-side supervisor."""

from __future__ import annotations

import pytest

from repro.serve.pool import PoolSupervisor
from repro.serve.schema import parse_request
from repro.sim import shm
from repro.sim.parallel import PoolUnavailable, WorkerPool


def _greedy_spec(n):
    return parse_request({"topology": {"kind": "ring-stream", "n": n},
                          "algorithm": "greedy-reduction"})


class TestWorkerPool:
    def test_thread_mode_lifecycle(self):
        with WorkerPool(max_workers=2, mode="thread") as pool:
            warmup = pool.warm()
            assert warmup >= 0.0
            assert pool.warmup_s == warmup
            future = pool.submit(len, [1, 2, 3])
            assert future.result(timeout=30) == 3
            stats = pool.stats()
            assert stats["mode"] == "thread"
            assert stats["completed"] >= 1
        with pytest.raises(PoolUnavailable):
            pool.submit(len, [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown pool mode"):
            WorkerPool(mode="fiber")

    def test_engine_frozen_at_construction(self):
        with WorkerPool(max_workers=1, engine="reference",
                        mode="thread") as pool:
            assert pool.engine == "reference"
            assert pool.stats()["engine"] == "reference"

    def test_occupancy_counters(self):
        with WorkerPool(max_workers=1, mode="thread") as pool:
            futures = [pool.submit(sum, range(10)) for _ in range(3)]
            assert [f.result(timeout=30) for f in futures] == [45] * 3
            stats = pool.stats()
            assert stats["submitted"] == 3
            assert stats["completed"] == 3
            assert pool.in_flight == 0

    def test_close_releases_published_topologies(self):
        from repro.graphs.streaming import stream_ring

        compiled = stream_ring(97)
        key = ("serve-pool-test", 97)
        with WorkerPool(max_workers=1, mode="thread") as pool:
            handles = pool.add_topologies({key: compiled})
            if not handles:
                pytest.skip("shared memory unavailable")
            assert shm.lookup(key) is not None
        assert shm.lookup(key) is None


class TestPoolSupervisor:
    def test_submit_batch_thread_mode(self):
        supervisor = PoolSupervisor(workers=1, mode="thread")
        try:
            supervisor.warm()
            future = supervisor.submit(_greedy_spec(48))
            result = future.result(timeout=60)
            # The supervisor ships execute_batch_metrics: one payload
            # plus the worker's registry delta and pid.
            assert set(result) == {"payload", "pid", "metrics"}
            assert result["payload"]["status"] == "ok"
            stats = supervisor.stats()
            assert stats["restarts"] == 0
            assert stats["completed"] >= 1
        finally:
            supervisor.close()

    def test_restart_preserves_topologies_and_counts(self):
        from repro.graphs.streaming import stream_ring

        supervisor = PoolSupervisor(workers=1, mode="thread")
        try:
            key = ("serve-supervisor-test", 53)
            handles = supervisor.add_topologies({key: stream_ring(53)})
            supervisor.restart()
            assert supervisor.stats()["restarts"] == 1
            if handles:
                # Republish-before-close keeps the segment alive across
                # the handover.
                assert shm.lookup(key) is not None
            future = supervisor.submit(_greedy_spec(49))
            result = future.result(timeout=60)
            assert result["payload"]["status"] == "ok"
        finally:
            supervisor.close()
        if handles:
            assert shm.lookup(key) is None

    def test_restart_of_a_replaced_pool_is_a_no_op(self):
        """Every request in flight on a dead pool fails and asks for a
        restart with the pool it failed on; only the first one acts."""
        supervisor = PoolSupervisor(workers=1, mode="thread")
        try:
            broken = supervisor.pool
            supervisor.restart(broken)
            replacement = supervisor.pool
            supervisor.restart(broken)
            assert supervisor.pool is replacement is not broken
            assert supervisor.stats()["restarts"] == 1
            future = supervisor.submit(_greedy_spec(50))
            assert future.result(timeout=60)["payload"]["status"] == "ok"
        finally:
            supervisor.close()

    def test_engine_stable_across_restart(self):
        supervisor = PoolSupervisor(workers=1, engine="reference",
                                    mode="thread")
        try:
            assert supervisor.engine == "reference"
            supervisor.restart()
            assert supervisor.engine == "reference"
        finally:
            supervisor.close()


class TestParallelSweepWithExternalPool:
    def test_external_pool_engine_conflict(self):
        from repro.sim.parallel import parallel_sweep

        with WorkerPool(max_workers=1, engine="vectorized",
                        mode="thread") as pool:
            with pytest.raises(ValueError, match="frozen engine"):
                parallel_sweep(
                    _measure, [{"x": 1}], engine="reference", pool=pool,
                )

    def test_external_pool_reused_across_sweeps(self):
        from repro.sim.parallel import parallel_sweep

        with WorkerPool(max_workers=2, mode="thread") as pool:
            first = parallel_sweep(_measure, [{"x": 1}, {"x": 2}],
                                   max_workers=2, pool=pool)
            second = parallel_sweep(_measure, [{"x": 3}],
                                    max_workers=2, pool=pool)
        assert [r["doubled"] for r in first] == [2, 4]
        assert second[0]["doubled"] == 6


def _measure(x):
    """Module-level so it pickles into worker processes."""
    return {"doubled": 2 * x}
