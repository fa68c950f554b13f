"""End-to-end daemon tests: HTTP, admission, bit-identity, isolation.

Most tests share one thread-mode daemon (module-scoped): a single
in-process worker lane makes runs deterministic and fork-free while
still exercising the full HTTP -> admission -> pool -> executor path
over a real TCP socket.  Process-mode behavior (worker death, restarts)
is covered separately with skip guards for sandboxes where process
pools are unavailable.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import socket
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import canonical_lines
from repro.serve import (
    ColoringServer,
    ServeClient,
    ServerHandle,
    execute_request,
    parse_request,
)
from repro.serve import executor as serve_executor
from repro.serve import server as serve_server
from repro.sim.parallel import WorkerPool

RING = {"kind": "ring-stream", "n": 96}
GNP = {"kind": "gnp", "n": 26, "density": 0.2, "seed": 5}
GREEDY = {"name": "greedy-reduction"}
SWEEP = {"name": "two-sweep", "p": 2, "seed": 7}


@pytest.fixture(scope="module")
def daemon():
    server = ColoringServer(mode="thread",
                            prewarm=({"kind": "ring-stream", "n": 96},))
    with ServerHandle(server) as handle:
        yield handle


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.host, daemon.port) as conn:
        yield conn


def _raw_exchange(daemon, request: bytes) -> bytes:
    """Send raw bytes, read until the daemon closes the connection."""
    chunks = []
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                # The daemon closed with part of an oversized line
                # unread; what it answered first is already here.
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_unknown_route_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_wrong_method_405(self, client):
        status, payload = client.request("POST", "/healthz", {})
        assert status == 405

    def test_malformed_json_400(self, client):
        client.conn.request("POST", "/color", body="{not json",
                            headers={"Content-Type": "application/json"})
        response = client.conn.getresponse()
        assert response.status == 400
        response.read()

    def test_oversized_integer_literal_400(self, client):
        # json.loads raises a plain ValueError past 4300 digits.
        client.conn.request("POST", "/color",
                            body='{"topology": {"kind": "ring-stream", '
                                 '"n": 1' + "0" * 5000 + "}}",
                            headers={"Content-Type": "application/json"})
        response = client.conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"]["type"] == \
            "RequestError"

    def test_bad_request_400(self, client):
        status, payload = client.color({"topology": {"kind": "torus"},
                                        "algorithm": GREEDY})
        assert status == 400
        assert payload["error"]["type"] == "RequestError"

    def test_unrunnable_id_bits_400(self, client):
        status, payload = client.color({
            "topology": RING,
            "algorithm": {"name": "two-sweep", "id_bits": 19},
        })
        assert status == 400
        assert payload["error"]["type"] == "RequestError"
        assert "round limit" in payload["error"]["message"]

    def test_unrunnable_node_count_400(self, client):
        # Without id_bits q = n, so 2n + 1 rounds: over the limit from
        # n = 500,000 on, whether n is in the request ...
        status, payload = client.color({
            "topology": {"kind": "ring-stream", "n": 500_000},
            "algorithm": "two-sweep",
        })
        assert status == 400
        assert payload["error"]["type"] == "RequestError"
        assert "1000001 two-sweep rounds" in payload["error"]["message"]
        # ... or known only from an uploaded graph.
        status, upload = client.upload(500_001, [])
        assert status == 200
        status, payload = client.color({
            "topology": {"kind": "graph", "id": upload["id"]},
            "algorithm": "two-sweep",
        })
        assert status == 400
        assert payload["error"]["type"] == "RequestError"
        assert "1000003 two-sweep rounds" in payload["error"]["message"]

    def test_unrunnable_fast_two_sweep_plain_route_400(self, client):
        # q = n = 500,000 <= (p / eps)^2: Algorithm 2 runs plain
        # Algorithm 1 over the node ids, past the round limit.
        status, payload = client.color({
            "topology": {"kind": "ring-stream", "n": 500_000},
            "algorithm": {"name": "fast-two-sweep", "p": 2,
                          "epsilon": 0.001},
        })
        assert status == 400
        assert payload["error"]["type"] == "RequestError"
        assert "1000001 two-sweep rounds" in payload["error"]["message"]

    def test_oversized_lists_400(self, client):
        # n * p^2 = 2000 * 64^2 list entries, whether n is in the
        # request ...
        algorithm = {"name": "two-sweep", "p": 64}
        status, payload = client.color({
            "topology": {"kind": "gnp-stream", "n": 2000, "p": 0.002},
            "algorithm": algorithm,
        })
        assert status == 400
        assert payload["error"]["type"] == "RequestError"
        assert "8192000 list entries" in payload["error"]["message"]
        # ... or known only from an uploaded graph.
        status, upload = client.upload(2000, [])
        assert status == 200
        status, payload = client.color({
            "topology": {"kind": "graph", "id": upload["id"]},
            "algorithm": algorithm,
        })
        assert status == 400
        assert payload["error"]["type"] == "RequestError"
        assert "8192000 list entries" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "length", ["-5", "abc", "1_0", " "],
        ids=["negative", "letters", "underscore", "blank"],
    )
    def test_bad_content_length_400(self, daemon, length):
        """A malformed Content-Length gets a 400 envelope, then close."""
        request = (
            "POST /color HTTP/1.1\r\n"
            f"Host: {daemon.host}\r\n"
            f"Content-Length: {length}\r\n"
            "\r\n"
        ).encode("latin-1")
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        payload = json.loads(body)
        assert payload["status"] == "error"
        assert payload["error"]["type"] == "BadRequest"
        assert "Content-Length" in payload["error"]["message"]

    @pytest.mark.parametrize("request_bytes, fragment", [
        (b"GARBAGE\r\n\r\n", "malformed request line"),
        (b"GET /healthz HTTP/1.1 extra\r\n\r\n", "malformed request line"),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n",
         "more than 100 headers"),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-Same: v\r\n" * 101 + b"\r\n",
         "more than 100 headers"),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024)
         + b"\r\n\r\n", "over 65536 bytes"),
        (b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
         "over 65536 bytes"),
    ], ids=["request-line", "request-line-parts", "too-many-headers",
            "repeated-header", "long-header", "long-request-line"])
    def test_unframeable_request_400(self, daemon, request_bytes, fragment):
        """What the HTTP layer cannot frame gets a 400 envelope, then
        close -- not a silently dropped connection."""
        data = _raw_exchange(daemon, request_bytes)
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), data[:200]
        assert b"Connection: close" in head
        payload = json.loads(body)
        assert payload["error"]["type"] == "BadRequest"
        assert fragment in payload["error"]["message"]
        assert len(payload["error"]["message"]) < 200

    def test_hundred_headers_accepted(self, daemon):
        request = (b"GET /healthz HTTP/1.1\r\n"
                   + b"".join(b"X-H%d: v\r\n" % i for i in range(99))
                   + b"Connection: close\r\n\r\n")
        assert _raw_exchange(daemon, request).startswith(b"HTTP/1.1 200 ")

    def test_stats_shape(self, client):
        client.color({"topology": RING, "algorithm": GREEDY})
        stats = client.stats()
        assert stats["kind"] == "stats"
        assert stats["requests"]["total"] >= 1
        assert stats["pool"]["mode"] == "thread"
        assert stats["pool"]["restarts"] == 0
        assert stats["queue"]["capacity"] == 256
        assert stats["latency_ms"]["p50"] is not None
        assert stats["latency_ms"]["p99"] is not None
        assert set(stats["caches"]) == {"counters"}
        assert "topologies" in stats["caches"]["counters"]
        assert "disk_cache_loaded" not in stats["boot"]
        assert stats["boot"]["prewarmed"] == ["('ring-stream', 96)"]
        prewarm_s = stats["boot"]["prewarm_s"]
        assert list(prewarm_s) == ["('ring-stream', 96)"]
        assert 0 < prewarm_s["('ring-stream', 96)"] < 60


class TestColoring:
    def test_greedy_request(self, client):
        status, payload = client.color(
            {"topology": RING, "algorithm": GREEDY})
        assert status == 200
        assert payload["kind"] == "coloring"
        assert payload["result"]["valid"] is True
        assert payload["timing"]["queue_wait_s"] >= 0
        assert payload["timing"]["request_wall_s"] > 0

    def test_prewarmed_topology_reports_shm_hit(self, client):
        # Satellite contract: a request against a published topology
        # reports a warm "topologies" lookup in its manifest.
        status, payload = client.color(
            {"topology": RING, "algorithm": GREEDY})
        assert status == 200
        counters = payload["manifest"]["cache_counters"]
        assert counters["topologies"]["hits"] == 1
        assert counters["topologies"]["misses"] == 0

    def test_algorithm_failure_does_not_poison_the_pool(self, client):
        status, payload = client.color({
            "topology": {"kind": "ring-stream", "n": 16},
            "algorithm": {"name": "two-sweep", "lists": "stuck",
                          "check": False},
        })
        assert status == 422
        assert payload["error"]["type"] == "AlgorithmFailure"
        # The very next request on the same daemon succeeds.
        status, payload = client.color(
            {"topology": RING, "algorithm": GREEDY})
        assert status == 200
        assert payload["status"] == "ok"

    def test_upload_then_color_by_handle(self, client):
        edges = [(i, i + 1) for i in range(9)] + [(9, 0)]
        status, upload = client.upload(10, edges)
        assert status == 200
        assert upload["n"] == 10 and upload["m"] == 10
        status, payload = client.color({
            "topology": {"kind": "graph", "id": upload["id"]},
            "algorithm": GREEDY,
        })
        assert status == 200
        assert payload["result"]["valid"] is True
        assert payload["topology"]["n"] == 10

    def test_published_upload_keeps_no_edge_list(self, daemon, client):
        status, upload = client.upload(6, [(i, (i + 1) % 6)
                                           for i in range(6)])
        assert status == 200
        if not upload["published"]:
            pytest.skip("shared memory unavailable")
        assert daemon.server._uploads[upload["id"]] == {"published": True}

    def test_unpublished_upload_colors_by_handle(self, monkeypatch):
        """An upload the workers cannot attach keeps its edge list and
        is colored from it, inlined into each request."""
        server = ColoringServer(mode="thread")
        monkeypatch.setattr(server.supervisor, "add_topologies",
                            lambda topologies: {})
        edges = [(i, (i + 1) % 7) for i in range(7)]
        with ServerHandle(server) as handle:
            with ServeClient(handle.host, handle.port) as conn:
                status, upload = conn.upload(7, edges)
                assert status == 200 and upload["published"] is False
                record = server._uploads[upload["id"]]
                assert record["published"] is False
                assert record["n"] == 7
                assert [tuple(edge) for edge in record["edges"]] == edges
                status, payload = conn.color({
                    "topology": {"kind": "graph", "id": upload["id"]},
                    "algorithm": GREEDY,
                })
        assert status == 200
        assert payload["result"]["valid"] is True
        assert payload["topology"]["n"] == 7

    def test_unknown_handle_400(self, client):
        status, payload = client.color({
            "topology": {"kind": "graph", "id": "deadbeef"},
            "algorithm": GREEDY,
        })
        assert status == 400


class TestBitIdentity:
    """The acceptance contract: daemon == serial, byte for byte."""

    def test_mixed_concurrent_traffic_matches_serial(self, daemon):
        # Two topologies x two algorithm classes, interleaved from
        # four client threads -- every response must be bit-identical
        # (logical trace + ledger + coloring checksum) to a serial
        # in-process execute_request of the same spec.
        bodies = [
            {"topology": RING, "algorithm": GREEDY},
            {"topology": GNP, "algorithm": SWEEP},
            {"topology": RING, "algorithm": dict(SWEEP, seed=9)},
            {"topology": GNP, "algorithm": GREEDY},
        ]
        references = [execute_request(parse_request(b)) for b in bodies]
        results = {}

        def drive(worker):
            with ServeClient(daemon.host, daemon.port) as conn:
                for step in range(3):
                    index = (worker + step) % len(bodies)
                    status, payload = conn.color(bodies[index])
                    results[(worker, step)] = (status, index, payload)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert len(results) == 12
        for (worker, step), (status, index, payload) in results.items():
            reference = references[index]
            assert status == 200, (worker, step, payload)
            assert payload["result"]["colors_blake2b"] == \
                reference["result"]["colors_blake2b"]
            assert payload["ledger"] == reference["ledger"]
            assert canonical_lines(payload["trace"]) == \
                canonical_lines(reference["trace"])


@pytest.fixture()
def gated_pool(monkeypatch):
    """Hold every request inside the pool until ``gate`` is set;
    ``entered`` is set once the first one is there."""
    gate, entered = threading.Event(), threading.Event()
    original = serve_executor.execute_request

    def held(spec):
        entered.set()
        gate.wait(timeout=60)
        return original(spec)

    monkeypatch.setattr(serve_executor, "execute_request", held)
    yield gate, entered
    gate.set()


def _color_in_thread(handle, results, index):
    def run():
        with ServeClient(handle.host, handle.port) as conn:
            results[index] = conn.color(
                {"topology": RING, "algorithm": GREEDY})

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestAdmission:
    def test_staggered_arrivals_past_max_queue_get_503(self, gated_pool):
        """``max_queue`` bounds the requests in flight: with one request
        held in the pool, arrivals spaced well apart are still shed once
        ``max_queue`` of them are admitted and unanswered."""
        gate, entered = gated_pool
        server = ColoringServer(mode="thread", workers=1, max_queue=2)
        results = {}
        with ServerHandle(server) as handle:
            threads = [_color_in_thread(handle, results, 0)]
            assert entered.wait(timeout=30)
            for index in (1, 2, 3):
                threads.append(_color_in_thread(handle, results, index))
                time.sleep(0.2)
            gate.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            with ServeClient(handle.host, handle.port) as conn:
                stats = conn.stats()
        assert [results[i][0] for i in range(4)] == [200, 200, 503, 503]
        busy = results[2][1]["error"]
        assert busy["type"] == "ServerBusy"
        assert "2 requests in flight" in busy["message"]
        assert stats["requests"]["rejected"] == 2
        assert stats["queue"]["depth"] == 0
        assert stats["queue"]["batches"] == 2

    def test_request_in_flight_at_stop_is_answered(self, gated_pool):
        gate, entered = gated_pool
        server = ColoringServer(mode="thread")
        handle = ServerHandle(server).__enter__()
        results = {}
        client = _color_in_thread(handle, results, 0)
        assert entered.wait(timeout=30)
        stopper = threading.Thread(target=handle.__exit__,
                                   args=(None, None, None))
        stopper.start()
        time.sleep(0.2)
        # stop() waits for the request it found in flight.
        assert stopper.is_alive()
        gate.set()
        stopper.join(timeout=120)
        client.join(timeout=60)
        assert not stopper.is_alive() and not client.is_alive()
        status, payload = results[0]
        assert status == 200
        assert payload["result"]["valid"] is True


    def test_exit_cancels_parked_keep_alive_handlers(self, caplog):
        """A keep-alive connection left open parks its handler on a read;
        leaving the handle cancels and awaits it before the loop closes,
        so no task is destroyed pending."""
        import gc

        server = ColoringServer(mode="thread")
        handle = ServerHandle(server).__enter__()
        conn = ServeClient(handle.host, handle.port)
        try:
            assert conn.healthz()["status"] == "ok"
            handle.__exit__(None, None, None)
        finally:
            conn.close()
        loop = handle._loop
        assert loop.is_closed()
        assert not asyncio.all_tasks(loop)
        del loop, handle
        gc.collect()
        assert "Task was destroyed" not in caplog.text


class TestWorkerMetrics:
    def test_only_foreign_pid_deltas_merge(self):
        """A thread-mode worker shares this process's registry, so its
        delta has already landed; a process worker's delta merges."""
        worker = MetricsRegistry()
        worker.counter("repro_test_worker_delta_total", "t").inc(3)
        delta = worker.snapshot()

        def merged():
            entry = obs_metrics.snapshot().get(
                "repro_test_worker_delta_total", {})
            return sum(s["value"] for s in entry.get("samples", ()))

        before = merged()
        payload = {"status": "ok"}
        assert ColoringServer._unwrap({"payload": payload,
                                       "pid": os.getpid(),
                                       "metrics": delta}) is payload
        assert merged() == before
        ColoringServer._unwrap({"payload": payload, "pid": -1,
                                "metrics": delta})
        assert merged() == before + 3


class TestHandles:
    def test_dispatch_ships_at_most_its_own_handle(self, monkeypatch):
        shipped = []
        original = WorkerPool.submit

        def spy(pool, fn, *args):
            shipped.append(args[1])
            return original(pool, fn, *args)

        monkeypatch.setattr(WorkerPool, "submit", spy)
        server = ColoringServer(mode="thread")
        with ServerHandle(server) as handle:
            with ServeClient(handle.host, handle.port) as conn:
                ids = []
                for n in (11, 12, 13, 14):
                    status, upload = conn.upload(
                        n, [(i, (i + 1) % n) for i in range(n)])
                    assert status == 200
                    if not upload["published"]:
                        pytest.skip("shared memory unavailable")
                    ids.append(upload["id"])
                for graph_id in ids:
                    status, _ = conn.color({
                        "topology": {"kind": "graph", "id": graph_id},
                        "algorithm": GREEDY})
                    assert status == 200
                status, _ = conn.color({"topology": {"kind": "ring-stream",
                                                     "n": 30},
                                        "algorithm": GREEDY})
                assert status == 200
                server.supervisor.restart()
                status, payload = conn.color({
                    "topology": {"kind": "graph", "id": ids[0]},
                    "algorithm": GREEDY})
                assert status == 200
                assert payload["result"]["valid"] is True
        assert [list(h) if h else None for h in shipped] == [
            [("uploaded", graph_id)] for graph_id in ids
        ] + [None, [("uploaded", ids[0])]]


class TestReadTimeout:
    def test_slow_headers_get_408(self, daemon, monkeypatch):
        """A peer that drips its headers one byte every 0.1 s is cut
        off by the read deadline with a 408, then closed."""
        monkeypatch.setattr(serve_server, "READ_TIMEOUT_S", 0.5)
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            started = time.monotonic()
            for byte in b"X-Slow: " + b"a" * 100:
                if select.select([sock], [], [], 0.1)[0]:
                    break
                try:
                    sock.sendall(bytes([byte]))
                except OSError:
                    break
            elapsed = time.monotonic() - started
            chunks = []
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), head
        assert b"Connection: close" in head
        payload = json.loads(body)
        assert payload["error"]["type"] == "RequestTimeout"
        assert elapsed < 5.0

    def test_partial_request_line_gets_408(self, daemon, monkeypatch):
        monkeypatch.setattr(serve_server, "READ_TIMEOUT_S", 0.5)
        data = _raw_exchange(daemon, b"GET /hea")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), data[:200]
        assert json.loads(body)["error"]["type"] == "RequestTimeout"

    def test_idle_connection_closed_silently(self, daemon, monkeypatch):
        monkeypatch.setattr(serve_server, "READ_TIMEOUT_S", 0.5)
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=10) as sock:
            started = time.monotonic()
            assert sock.recv(65536) == b""
            assert time.monotonic() - started < 5.0


class TestProcessMode:
    def test_worker_death_triggers_restart_and_recovery(self):
        import os
        import signal

        server = ColoringServer(mode="process", workers=2)
        try:
            with ServerHandle(server) as handle:
                if server.supervisor.pool.mode != "process":
                    pytest.skip("process pools unavailable: "
                                f"{server.supervisor.pool.fallback_reason}")
                with ServeClient(handle.host, handle.port) as conn:
                    status, payload = conn.color(
                        {"topology": RING, "algorithm": GREEDY})
                    assert status == 200
                    reference = payload["result"]["colors_blake2b"]
                    executor = server.supervisor.pool.executor
                    victims = list(executor._processes)
                    os.kill(victims[0], signal.SIGKILL)
                    # Until the executor notices the death, the next
                    # request could reach the surviving worker and no
                    # restart would happen; wait for the broken flag.
                    deadline = time.monotonic() + 10.0
                    while (not executor._broken
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    assert executor._broken, "worker death went unnoticed"
                    # The request hit by the kill is retried on a fresh
                    # pool; either way the daemon must answer correctly.
                    status, payload = conn.color(
                        {"topology": RING, "algorithm": GREEDY})
                    if status != 200:
                        status, payload = conn.color(
                            {"topology": RING, "algorithm": GREEDY})
                    assert status == 200
                    assert payload["result"]["colors_blake2b"] == \
                        reference
                    stats = conn.stats()
                    assert stats["pool"]["restarts"] >= 1
        except PermissionError:  # pragma: no cover - sandboxed CI
            pytest.skip("process pools unavailable in this sandbox")

    def test_stats_caches_count_worker_lookups(self):
        """``/stats.caches`` reads the registry the workers' deltas merge
        into: a prewarmed ring served three times by one process worker
        reports the parent's build miss and the three workers' shm hits,
        exactly the ``repro_cache_lookups_total`` samples of the same
        payload."""
        ring = {"kind": "ring-stream", "n": 64}
        obs_metrics.reset_metrics()
        server = ColoringServer(mode="process", workers=1, prewarm=(ring,))
        with ServerHandle(server) as handle:
            if server.supervisor.pool.mode != "process":
                pytest.skip("process pools unavailable: "
                            f"{server.supervisor.pool.fallback_reason}")
            with ServeClient(handle.host, handle.port) as conn:
                for _ in range(3):
                    status, payload = conn.color(
                        {"topology": ring, "algorithm": GREEDY})
                    assert status == 200, payload
                stats = conn.stats()
        lookups = {}
        for sample in stats["metrics"]["repro_cache_lookups_total"][
                "samples"]:
            labels = sample["labels"]
            entry = lookups.setdefault(labels["registry"],
                                       {"hits": 0, "misses": 0})
            outcome = "hits" if labels["outcome"] == "hit" else "misses"
            entry[outcome] += int(sample["value"])
        assert stats["caches"]["counters"] == lookups
        assert lookups == {"topologies": {"hits": 3, "misses": 1}}
