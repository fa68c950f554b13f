"""The coloring daemon: a stdlib-only asyncio HTTP/1.1 front end.

One :class:`ColoringServer` owns the whole warm-state story:

* boot: install shared-memory signal cleanup, spawn and warm the
  worker pool, publish any prewarm topologies, then start listening;
* steady state: parse requests, admit each one while fewer than
  ``max_queue`` are in flight (503 otherwise), hand it to the pool as
  one dispatch, and stream JSON responses over keep-alive connections
  while tracking rolling latency percentiles;
* shutdown: stop accepting, let every request in flight finish, and
  close the pool (releasing its shm topologies).

The HTTP layer is deliberately minimal -- request line, headers,
``Content-Length`` bodies, keep-alive -- because the daemon talks to
benchmark harnesses and scripts, not browsers.  Each request must
arrive within :data:`READ_TIMEOUT_S` (408 otherwise; a connection silent
that long is closed).  Routes:

=======  =========  ====================================================
method   path       purpose
=======  =========  ====================================================
GET      /healthz   liveness + uptime
GET      /stats     occupancy, latency percentiles, cache/pool counters
GET      /metrics   the unified registry in Prometheus text format
POST     /graphs    upload an edge list; returns a reusable graph handle
POST     /color     run one coloring request (see ``serve.schema``)
=======  =========  ====================================================

:class:`ServerHandle` hosts a server on a background thread with its own
event loop -- the harness tests and ``benchmarks/bench_serve.py`` use it
to drive a real TCP daemon in-process.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs.metrics import percentile
from .executor import resolve_topology
from .pool import PoolSupervisor
from .schema import (
    RequestError,
    envelope,
    parse_request,
    parse_topology,
)

#: Refuse request bodies above this size (inline edge lists included).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Refuse requests with more header lines than this.
MAX_HEADERS = 100

#: The longest request or header line: the listener's stream limit.
MAX_LINE_BYTES = 64 * 1024

#: Seconds a connection has to deliver a whole request -- line, headers
#: and body -- from when the server starts waiting for it: a partial
#: request is then answered 408, a silent connection closed.
READ_TIMEOUT_S = 30.0

#: Rolling window for the /stats latency percentiles.
_LATENCY_WINDOW = 2048

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    503: "Service Unavailable",
}


# ``percentile`` is re-exported from :mod:`repro.obs.metrics`: the
# ceil-based upper nearest rank, shared with ``Histogram.quantile`` so
# the rolling window and the histogram view agree (the old local copy
# used ``round()``, whose banker's rounding resolved p50 of ``[1, 2]``
# to rank 1 and quietly accepted ``fraction=0.0``).
__all__ = ["BadRequest", "ColoringServer", "RequestTimeout",
           "ServerHandle", "percentile"]


class BadRequest(ValueError):
    """A request the HTTP layer cannot frame; answered 400, then closed."""


class RequestTimeout(Exception):
    """A request that did not arrive within :data:`READ_TIMEOUT_S`;
    answered 408, then closed."""


class ColoringServer:
    """One daemon: listener + admission + supervised warm worker pool.

    ``max_queue`` bounds the requests in flight -- admitted and not yet
    answered; one more is a 503.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 engine: Optional[str] = None,
                 mode: str = "process",
                 max_queue: int = 256,
                 prewarm: Tuple[Dict[str, Any], ...] = ()):
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self.supervisor = PoolSupervisor(workers=workers, engine=engine,
                                         mode=mode)
        self.max_queue = max_queue
        self._in_flight = 0
        self._drained: Optional[asyncio.Event] = None
        self.dispatched = 0
        self._prewarm = tuple(prewarm)
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_monotonic: Optional[float] = None
        self._latencies_ms: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.requests: Dict[str, int] = {
            "total": 0, "ok": 0, "errors": 0, "rejected": 0,
        }
        self._by_algorithm: Dict[str, int] = {}
        self._uploads: Dict[str, Dict[str, Any]] = {}
        self.boot: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm everything, then start listening (sets :attr:`port`)."""
        from ..sim import shm

        loop = asyncio.get_running_loop()
        shm.install_signal_cleanup()
        warmup_s = await loop.run_in_executor(None, self.supervisor.warm)
        prewarm_s: Dict[str, float] = {}
        for raw in self._prewarm:
            topology = parse_topology(raw)
            started = time.perf_counter()
            key, compiled = await loop.run_in_executor(
                None, resolve_topology, topology
            )
            self.supervisor.add_topologies({key: compiled})
            prewarm_s[str(key)] = time.perf_counter() - started
        self.boot = {
            "warmup_s": warmup_s,
            "prewarmed": list(prewarm_s),
            "prewarm_s": prewarm_s,
        }
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def stop(self) -> None:
        """Graceful shutdown: drain, then close the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Let every request in flight reach its response.
        if self._in_flight:
            self._drained = asyncio.Event()
            await self._drained.wait()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.close)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except (BadRequest, RequestTimeout) as error:
                    # The body boundary is unknown, so the connection
                    # cannot carry another request.
                    status = 400 if isinstance(error, BadRequest) else 408
                    await self._respond(writer, status, envelope(
                        "error", status="error",
                        error={"type": type(error).__name__,
                               "message": str(error)},
                    ))
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                if isinstance(body, int):  # oversized: body holds length
                    await self._respond(writer, 413, envelope(
                        "error", status="error",
                        error={"type": "PayloadTooLarge",
                               "message": f"body of {body} bytes exceeds "
                                          f"{MAX_BODY_BYTES}"},
                    ))
                    break
                status, payload = await self._route(method, path, body)
                keep = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, keep_alive=keep)
                if not keep:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError, ValueError):
            pass  # half-closed or garbled peer: drop the connection
        except asyncio.CancelledError:
            # Shutdown cancels handlers parked on an idle keep-alive
            # read; completing quietly keeps asyncio.run's teardown from
            # logging a spurious traceback per open connection.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF or an idle timeout.

        Returns ``(method, path, headers, body)``; an oversized body is
        *not* read -- the body slot carries its length as an ``int``.
        The whole request must arrive within :data:`READ_TIMEOUT_S` of
        the start of the wait: a connection silent that long gets
        ``None`` (it is closed), one that sent part of a request gets
        :class:`RequestTimeout`.  Raises :class:`BadRequest`
        for a malformed request line, a line over
        :data:`MAX_LINE_BYTES`, more than :data:`MAX_HEADERS` headers,
        or a ``Content-Length`` that is not a plain decimal byte count.
        """
        arrived: List[bytes] = []
        try:
            return await asyncio.wait_for(
                ColoringServer._read_parts(reader, arrived), READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            if not arrived:
                return None
            raise RequestTimeout(
                f"request not received within {READ_TIMEOUT_S:g} s"
            ) from None

    @staticmethod
    async def _read_parts(reader: asyncio.StreamReader,
                          arrived: List[bytes]):
        """:meth:`_read_request` without its deadline; puts the first
        byte in ``arrived`` once one has come."""
        first = await reader.read(1)
        if not first:
            return None
        arrived.append(first)
        line = first if first == b"\n" else \
            first + await ColoringServer._read_line(reader)
        if line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise BadRequest(f"malformed request line: {line[:80]!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        count = 0
        while True:
            raw = await ColoringServer._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > MAX_HEADERS:
                raise BadRequest(f"more than {MAX_HEADERS} headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise BadRequest(f"invalid Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            return method, path, headers, length
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # readline's form of LimitOverrunError
            raise BadRequest(
                f"request or header line over {MAX_LINE_BYTES} bytes"
            ) from None

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       keep_alive: bool = False) -> None:
        # A ``str`` payload is served verbatim as Prometheus text
        # (``GET /metrics``); everything else is a JSON envelope.
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed()
            return 200, envelope("health", status="ok",
                                 uptime_s=self.uptime_s())
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed()
            return 200, self._stats_payload()
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed()
            self._refresh_gauges()
            return 200, obs_metrics.exposition()
        if path == "/graphs":
            if method != "POST":
                return self._method_not_allowed()
            return await self._post_graph(body)
        if path == "/color":
            if method != "POST":
                return self._method_not_allowed()
            return await self._post_color(body)
        return 404, envelope("error", status="error", error={
            "type": "NotFound", "message": f"no route {path!r}",
        })

    @staticmethod
    def _method_not_allowed() -> Tuple[int, Dict[str, Any]]:
        return 405, envelope("error", status="error", error={
            "type": "MethodNotAllowed",
            "message": "use GET for /healthz, /stats and /metrics, "
                       "POST otherwise",
        })

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8") or "null")
        except ValueError as error:
            # JSONDecodeError, UnicodeDecodeError, and the ValueError of
            # an integer literal past Python's 4300-digit limit.
            raise RequestError(f"body is not valid JSON: {error}") from None

    async def _post_graph(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        """Upload an edge list once; color it many times by handle."""
        try:
            raw = self._parse_body(body)
            if not isinstance(raw, dict):
                raise RequestError("graph upload must be a JSON object")
            topology = parse_topology({
                "kind": "edges",
                "n": raw.get("n"),
                "edges": raw.get("edges"),
            })
        except RequestError as error:
            return 400, envelope("error", status="error", error={
                "type": "RequestError", "message": str(error),
            })
        loop = asyncio.get_running_loop()
        key, compiled = await loop.run_in_executor(
            None, resolve_topology, topology
        )
        handles = self.supervisor.add_topologies({key: compiled})
        graph_id = topology["id"]
        record: Dict[str, Any] = {"published": key in handles}
        if not record["published"]:
            # Only an upload the workers cannot attach keeps its edge
            # list: _rewrite_upload inlines it into each request for it.
            record.update(n=topology["n"], edges=topology["edges"])
        self._uploads[graph_id] = record
        return 200, envelope(
            "graph-upload", status="ok", id=graph_id,
            n=compiled.n, m=compiled.m,
            max_degree=compiled.raw_max_degree(),
            published=record["published"],
        )

    @staticmethod
    def _count_request(route: str, status: int) -> None:
        obs_metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by route and status code",
            labelnames=("route", "code"),
        ).labels(route=route, code=str(status)).inc()

    async def _post_color(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        status, payload = await self._color_inner(body)
        self._count_request("/color", status)
        return status, payload

    async def _color_inner(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        started = time.perf_counter()
        self.requests["total"] += 1
        try:
            spec = parse_request(self._parse_body(body))
        except RequestError as error:
            self.requests["rejected"] += 1
            return 400, envelope("error", status="error", error={
                "type": "RequestError", "message": str(error),
            })
        self._rewrite_upload(spec)
        name = spec["algorithm"]["name"]
        self._by_algorithm[name] = self._by_algorithm.get(name, 0) + 1
        if self._in_flight >= self.max_queue:
            self.requests["rejected"] += 1
            return 503, envelope("error", status="error", error={
                "type": "ServerBusy",
                "message": f"admission full ({self.max_queue} requests "
                           "in flight)",
            })
        self._in_flight += 1
        try:
            payload = await self._dispatch(spec, time.perf_counter())
        except RuntimeError as error:
            self.requests["errors"] += 1
            return 500, envelope("error", status="error", error={
                "type": "DispatchFailed", "message": str(error),
            })
        finally:
            self._in_flight -= 1
            if not self._in_flight and self._drained is not None:
                self._drained.set()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._latencies_ms.append(elapsed_ms)
        obs_metrics.histogram(
            "repro_request_seconds",
            "End-to-end /color latency (admission to response)",
            buckets=obs_metrics.LATENCY_BUCKETS,
        ).observe(elapsed_ms / 1000.0)
        payload["timing"]["request_wall_s"] = elapsed_ms / 1000.0
        if payload["status"] == "ok":
            self.requests["ok"] += 1
            return 200, envelope("coloring", **payload)
        self.requests["errors"] += 1
        status = 400 if payload["error"]["type"] == "RequestError" else 422
        return status, envelope("coloring", **payload)

    async def _dispatch(self, spec: Dict[str, Any],
                        admitted: float) -> Dict[str, Any]:
        """Run one admitted request on the pool; resolves to its payload.

        A request whose worker dies is retried once on a freshly
        restarted pool; a second failure raises ``RuntimeError``.
        """
        dispatched = time.perf_counter()
        self.dispatched += 1
        obs_metrics.histogram(
            "repro_queue_wait_seconds",
            "Admission-to-dispatch wait per request",
            buckets=obs_metrics.LATENCY_BUCKETS,
        ).observe(dispatched - admitted)
        loop = asyncio.get_running_loop()
        error: Optional[Exception] = None
        for attempt in (0, 1):
            pool = self.supervisor.pool
            try:
                future = asyncio.wrap_future(self.supervisor.submit(spec))
                payload = self._unwrap(await future)
                break
            except Exception as exc:  # noqa: BLE001 - fault barrier
                # Typically BrokenProcessPool from a worker killed
                # mid-request; rebuild the pool and retry once.
                error = exc
                if attempt == 0:
                    await loop.run_in_executor(
                        None, self.supervisor.restart, pool
                    )
        else:
            raise RuntimeError(f"request execution failed: {error}")
        payload["timing"]["queue_wait_s"] = dispatched - admitted
        return payload

    @staticmethod
    def _unwrap(result: Dict[str, Any]) -> Dict[str, Any]:
        """The payload of a worker result, folding in its metrics.

        :func:`~repro.serve.executor.execute_batch_metrics` wraps the
        payload with the worker's registry delta and pid.  Same-pid
        deltas -- thread-mode pools share this process, whose registry
        already saw the updates -- are dropped to avoid double-counting.
        """
        delta = result["metrics"]
        if delta and result["pid"] != os.getpid():
            try:
                obs_metrics.merge(delta)
            except obs_metrics.MetricError:
                pass  # a foreign layout must not fail the request
        return result["payload"]

    def _rewrite_upload(self, spec: Dict[str, Any]) -> None:
        """Resolve a ``graph`` handle the workers cannot see via shm.

        When the upload could not be published to shared memory (or a
        thread-mode pool shares this process anyway), the spec is
        rewritten to inline edges whose digest reproduces the same
        topology key, so caching identities are unchanged.
        """
        topology = spec["topology"]
        if topology["kind"] != "graph":
            return
        record = self._uploads.get(topology["id"])
        if record is not None and not record["published"]:
            spec["topology"] = {
                "kind": "edges",
                "n": record["n"],
                "edges": record["edges"],
                "id": topology["id"],
            }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _refresh_gauges(self) -> None:
        """Push point-in-time server state into the registry gauges.

        Counters and histograms update at their call sites; gauges that
        mirror live server state (queue depth, pool size, uptime) are
        sampled here, immediately before a snapshot or exposition, so
        scrapes always see current values.
        """
        obs_metrics.gauge(
            "repro_queue_depth", "Requests admitted and not yet answered"
        ).set(float(self._in_flight))
        pool = self.supervisor.stats()
        obs_metrics.gauge(
            "repro_pool_workers", "Worker processes/threads in the pool"
        ).set(float(pool.get("workers") or 0))
        obs_metrics.gauge(
            "repro_uptime_seconds", "Seconds since the daemon began listening"
        ).set(self.uptime_s())

    def _stats_payload(self) -> Dict[str, Any]:
        from ..sim import shm
        from ..substrates import cache

        self._refresh_gauges()
        window = tuple(self._latencies_ms)
        return envelope(
            "stats",
            status="ok",
            uptime_s=self.uptime_s(),
            boot=self.boot,
            requests={**self.requests,
                      "by_algorithm": dict(self._by_algorithm)},
            latency_ms={
                "window": len(window),
                "p50": percentile(window, 0.50),
                "p99": percentile(window, 0.99),
            },
            # ``batches`` and ``batched_requests`` both count dispatched
            # requests: one request per pool dispatch.
            queue={
                "depth": self._in_flight,
                "capacity": self.max_queue,
                "batches": self.dispatched,
                "batched_requests": self.dispatched,
            },
            pool=self.supervisor.stats(),
            caches={"counters": cache.cache_counters()},
            topologies={
                "published": sorted(str(key) for key in shm.published_keys()),
                "uploads": len(self._uploads),
            },
            metrics=obs_metrics.snapshot(),
        )


class ServerHandle:
    """Host a :class:`ColoringServer` on a background thread.

    ``with ServerHandle(ColoringServer(...)) as handle:`` gives tests and
    benchmarks a real TCP daemon (``handle.host`` / ``handle.port``)
    inside the current process, with clean startup/shutdown ordering.
    """

    def __init__(self, server: ColoringServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._boot_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def __enter__(self) -> "ServerHandle":
        ready = threading.Event()
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 - reraised
                self._boot_error = error
                ready.set()
                return
            ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not ready.wait(timeout=120):
            raise RuntimeError("server failed to start within 120 s")
        if self._boot_error is not None:
            raise self._boot_error
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self._loop is not None and self._thread is not None
        future = asyncio.run_coroutine_threadsafe(self._shutdown(),
                                                  self._loop)
        try:
            future.result(timeout=120)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=120)
            if not self._loop.is_running():
                self._loop.close()

    async def _shutdown(self) -> None:
        """Stop the server, then cancel and await the connection
        handlers still parked on a keep-alive read, so none is left
        pending when the loop closes."""
        await self.server.stop()
        current = asyncio.current_task()
        pending = [task for task in asyncio.all_tasks()
                   if task is not current]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
