"""Shared-memory CSR topologies: publish, attach, lookup, lifecycle.

Pool workers forked on this platform inherit the parent's ``_exported``
table, so a live sweep never exercises the handle-attach path a
spawn-start worker would take.  These tests therefore *simulate* the
spawn worker: snapshot the handles, hide the parent-side table, reset
the worker-side state, and attach through ``receive_handles`` +
``lookup`` -- asserting the mapped view is byte-identical to the
original and feeds the kernels unchanged.  Publishing must degrade to
``None`` (per-worker rebuilds) when shared memory is unusable.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.graphs.streaming import csr_from_edges, ring_edges
from repro.sim import CompiledNetwork, CostLedger, parallel_sweep, shm, \
    use_engine
from repro.substrates.greedy import greedy_color_reduction

#: Subprocesses import ``repro`` from this checkout's ``src``.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])


def _ring_compiled(n: int) -> CompiledNetwork:
    indptr, indices = csr_from_edges(n, ring_edges(n))
    return CompiledNetwork.from_csr(indptr, indices)


def _publish_or_skip(key, compiled):
    handle = shm.publish(key, compiled)
    if handle is None:
        pytest.skip("shared memory unusable here")
    return handle


def measure_shared_ring(seed: int, n: int) -> dict:
    """Module-level so pool workers can unpickle it by reference."""
    from repro.graphs.streaming import inflated_seed_coloring, stream_ring

    compiled = shm.lookup(("ring-stream", n)) or stream_ring(n)
    colors, q = inflated_seed_coloring(compiled, 8)
    result = greedy_color_reduction(compiled, colors, q,
                                    compiled.raw_max_degree() + 1)
    return {"distinct": len(set(result))}


class TestPublish:
    def test_handle_and_segment_shape(self):
        compiled = _ring_compiled(40)
        key = ("test-shm", "shape")
        try:
            handle = _publish_or_skip(key, compiled)
            assert handle["n"] == 40
            assert handle["nnz"] == len(compiled.indices) == 80
            assert key in shm.published_keys()
            # [indptr | indices | degrees], int64 throughout.
            assert shm.segment_bytes(key) >= 8 * (41 + 80 + 40)
        finally:
            shm.unlink_all()

    def test_publish_is_idempotent(self):
        compiled = _ring_compiled(12)
        key = ("test-shm", "idem")
        try:
            first = _publish_or_skip(key, compiled)
            assert shm.publish(key, compiled) == first
            assert len([k for k in shm.published_keys() if k == key]) == 1
        finally:
            shm.unlink_all()

    def test_parent_lookup_returns_original(self):
        compiled = _ring_compiled(9)
        key = ("test-shm", "parent")
        try:
            _publish_or_skip(key, compiled)
            assert shm.lookup(key) is compiled
        finally:
            shm.unlink_all()

    def test_unlink_all_clears(self):
        compiled = _ring_compiled(6)
        key = ("test-shm", "unlink")
        _publish_or_skip(key, compiled)
        shm.unlink_all()
        assert shm.published_keys() == ()
        assert shm.segment_bytes(key) is None
        assert shm.lookup(key) is None

    def test_publish_degrades_to_none(self, monkeypatch):
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError("no shm here")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        assert shm.publish(("test-shm", "refused"), _ring_compiled(5)) \
            is None
        assert ("test-shm", "refused") not in shm.published_keys()


class TestWorkerAttach:
    def test_spawn_worker_round_trip(self, monkeypatch):
        """Handle -> attach -> byte-identical mapped view -> kernels."""
        compiled = _ring_compiled(64)
        key = ("ring-stream", 64)
        try:
            _publish_or_skip(key, compiled)
            handles = shm.export_handles()
            assert key in handles

            # Simulate a spawn worker: no parent-side table, fresh
            # worker-side state, only the pickled handles arrive.
            monkeypatch.setattr(shm, "_exported", {})
            shm._reset_worker_state()
            assert shm.lookup(key) is None
            shm.receive_handles(handles)

            attached = shm.lookup(key)
            assert attached is not None
            assert attached is not compiled
            assert attached.n == compiled.n
            assert bytes(memoryview(attached.indptr)) == \
                bytes(memoryview(compiled.indptr))
            assert bytes(memoryview(attached.indices)) == \
                bytes(memoryview(compiled.indices))
            assert bytes(memoryview(attached.degrees)) == \
                bytes(memoryview(compiled.degrees))
            # Attachment is cached; the same mapped object comes back.
            assert shm.lookup(key) is attached

            # The mapped view drives the vectorized kernels unchanged.
            from repro.graphs.streaming import inflated_seed_coloring

            colors, q = inflated_seed_coloring(attached, 8)
            ledger = CostLedger()
            with use_engine("vectorized"):
                result = greedy_color_reduction(
                    attached, colors, q, attached.raw_max_degree() + 1,
                    ledger=ledger,
                )
            assert ledger.rounds > 0
            for i in range(64):
                assert result[i] != result[(i + 1) % 64]
        finally:
            # The monkeypatched table is restored by the fixture; the
            # worker-side attachment stays mapped (releasing it while
            # its memoryviews live would raise) and the parent unlinks.
            shm.unlink_all()

    def test_receive_none_is_noop(self):
        shm.receive_handles(None)
        shm.receive_handles({})
        assert shm.lookup(("test-shm", "missing")) is None

    def test_attach_missing_segment_degrades(self, monkeypatch):
        monkeypatch.setattr(shm, "_exported", {})
        shm._reset_worker_state()
        shm.receive_handles({
            ("test-shm", "gone"): {"name": "repro-no-such-segment",
                                   "n": 4, "nnz": 8},
        })
        assert shm.lookup(("test-shm", "gone")) is None
        shm._reset_worker_state()


class TestSweepIntegration:
    def test_sweep_with_published_topology(self):
        """End to end: topology rides shm, workers report peak RSS."""
        from repro.graphs.streaming import stream_ring

        n = 512
        compiled = stream_ring(n)
        try:
            report = parallel_sweep(
                measure_shared_ring,
                [{"seed": s, "n": n} for s in range(3)],
                max_workers=2, report=True,
                topologies={("ring-stream", n): compiled},
            )
            # Reduced to at most Delta + 1 = 3 colors on the ring.
            assert all(2 <= r["distinct"] <= 3 for r in report)
            assert len(set(tuple(sorted(r.items())) for r in report)) >= 1
            assert report.workers
            for worker in report.workers:
                assert worker.get("rss_kb") is None or \
                    worker["rss_kb"] > 0
        finally:
            shm.unlink_all()

    def test_sweep_without_topologies_still_works(self):
        records = parallel_sweep(
            measure_shared_ring,
            [{"seed": 0, "n": 128}],
            max_workers=1,
        )
        assert 2 <= records[0]["distinct"] <= 3


class TestRefcounting:
    def test_release_unlinks_at_zero(self):
        compiled = _ring_compiled(10)
        key = ("test-shm", "refcount")
        try:
            _publish_or_skip(key, compiled)
            shm.publish(key, compiled)
            assert shm.refcount(key) == 2
            assert shm.release(key) is False  # one reference remains
            assert key in shm.published_keys()
            assert shm.release(key) is True  # last reference unlinks
            assert key not in shm.published_keys()
            assert shm.lookup(key) is None
        finally:
            shm.unlink_all()

    def test_release_unknown_key_is_noop(self):
        assert shm.release(("test-shm", "never-published")) is False
        assert shm.refcount(("test-shm", "never-published")) == 0

    def test_segment_actually_gone_after_release(self):
        """release() must unlink the OS object, not just forget it."""
        from multiprocessing import shared_memory

        compiled = _ring_compiled(8)
        key = ("test-shm", "gone-after-release")
        try:
            handle = _publish_or_skip(key, compiled)
            assert shm.release(key) is True
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle["name"])
        finally:
            shm.unlink_all()

    def test_unlink_all_force_drops_refcounts(self):
        compiled = _ring_compiled(6)
        key = ("test-shm", "force")
        _publish_or_skip(key, compiled)
        shm.publish(key, compiled)  # refcount 2
        shm.unlink_all()
        assert shm.refcount(key) == 0
        assert shm.lookup(key) is None


class TestConcurrentLifecycle:
    """A serve supervisor restarting a crashed pool releases topologies
    from its monitor thread while the request path publishes the same
    key; the close/unlink pair must run exactly once per segment."""

    def test_concurrent_release_unlinks_exactly_once(self):
        import threading

        compiled = _ring_compiled(24)
        key = ("test-shm", "race-release")
        try:
            _publish_or_skip(key, compiled)  # refcount 1
            barrier = threading.Barrier(8)
            unlinked = []

            def racer():
                barrier.wait()
                if shm.release(key):
                    unlinked.append(True)

            threads = [threading.Thread(target=racer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(unlinked) == 1
            assert key not in shm.published_keys()
        finally:
            shm.unlink_all()

    def test_publish_release_storm_stays_consistent(self):
        import threading

        compiled = _ring_compiled(16)
        key = ("test-shm", "race-storm")
        if shm.publish(key, compiled) is None:
            pytest.skip("shared memory unusable here")
        shm.release(key)
        failures = []

        def churn():
            try:
                for _ in range(40):
                    if shm.publish(key, compiled) is None:
                        return
                    shm.release(key)
            except Exception as error:  # pragma: no cover - the bug
                failures.append(error)

        try:
            threads = [threading.Thread(target=churn) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
            # Balanced publish/release pairs: nothing left behind.
            assert shm.refcount(key) == 0
        finally:
            shm.unlink_all()

    def test_attach_never_registers_with_resource_tracker(self):
        """Workers must not touch the resource tracker at all.

        Under fork the tracker process is shared, so a worker-side
        register/unregister pair deletes the *parent's* cache entry and
        the parent's eventual unlink crashes the tracker thread with a
        KeyError traceback.  The attach path therefore stubs out
        registration entirely."""
        from multiprocessing import resource_tracker

        compiled = _ring_compiled(20)
        key = ("test-shm", "no-track")
        registered = []
        original = resource_tracker.register
        try:
            handle = _publish_or_skip(key, compiled)
            resource_tracker.register = \
                lambda *args, **kwargs: registered.append(args)
            try:
                from multiprocessing import shared_memory

                segment = shm._attach_untracked(shared_memory,
                                                handle["name"])
            finally:
                resource_tracker.register = original
            assert registered == []
            segment.close()
        finally:
            shm.unlink_all()


class TestWorkerDeath:
    def test_killed_worker_does_not_unlink_parent_segment(self):
        """A worker that dies hard (SIGKILL mid-attachment) must leave
        the parent's segment mapped, readable, and releasable -- workers
        only map, they never own."""
        import signal
        import subprocess
        import sys
        import textwrap

        compiled = _ring_compiled(32)
        key = ("test-shm", "worker-death")
        try:
            handle = _publish_or_skip(key, compiled)
            script = textwrap.dedent(f"""
                import os, sys
                sys.path.insert(0, {repr("src")})
                from repro.sim import shm
                shm.receive_handles({{("k",): {handle!r}}})
                attached = shm.lookup(("k",))
                assert attached is not None and attached.n == 32
                print("attached", flush=True)
                os.kill(os.getpid(), {int(signal.SIGKILL)})
            """)
            proc = subprocess.Popen(
                [sys.executable, "-c", script], cwd=_REPO_ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            out, err = proc.communicate(timeout=60)
            assert "attached" in out, err
            assert proc.returncode == -signal.SIGKILL
            # The parent's segment survived the worker's death intact.
            survivor = shm.lookup(key)
            assert survivor is compiled
            assert shm.segment_bytes(key) is not None
            assert shm.release(key) is True
        finally:
            shm.unlink_all()

    def test_sigterm_cleanup_unlinks_published_segments(self):
        """A SIGTERM-killed daemon must not leak /dev/shm segments:
        install_signal_cleanup unlinks everything before dying."""
        import signal
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import sys, time
            sys.path.insert(0, "src")
            from repro.graphs.streaming import csr_from_edges, ring_edges
            from repro.sim import shm
            from repro.sim.compiled import CompiledNetwork

            indptr, indices = csr_from_edges(16, ring_edges(16))
            compiled = CompiledNetwork.from_csr(indptr, indices)
            handle = shm.publish(("daemon", 16), compiled)
            if handle is None:
                print("SKIP", flush=True)
                sys.exit(0)
            assert shm.install_signal_cleanup()
            print(handle["name"], flush=True)
            time.sleep(60)
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], cwd=_REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            name = proc.stdout.readline().strip()
            if name == "SKIP":
                proc.wait(timeout=30)
                pytest.skip("shared memory unusable here")
            assert name
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            assert proc.returncode == -signal.SIGTERM
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            proc.kill()
            proc.wait(timeout=30)
