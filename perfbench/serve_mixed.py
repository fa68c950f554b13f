"""serve-mixed: the coloring daemon as users run it.

``repro --engine vectorized serve --workers 2`` runs in its own process
with the named topologies prewarmed.  This process drives it in a closed
loop over 2 keep-alive connections with zero think time.  Every block of
:data:`BLOCK_SIZE` steps holds one request of each kind, shuffled by the
seed:

* small sparse greedy-reduction on ``ring-stream`` (n = 20,000);
* dense greedy-reduction on a prewarmed G(4000, 0.15), whose degree is
  above ``sim.arrays.MIN_TALLY`` so the NumPy gather/mex path engages;
* small ``two-sweep`` and ``fast-two-sweep`` requests;
* as the last step, a write: ``POST /graphs`` of a freshly seeded edge
  list (resolve plus ``sim.shm`` publish), then coloring it by handle.

The seed fixes the G(n, p) seeds, the OLDC list seeds, the uploaded edge
lists and the order of each block.  Set-up is daemon boot until it
listens, prewarm included, repeated several times per run.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from . import procs, report
from .report import Outcome
from .spans import Recorder, Tally, median, payload_mismatches, supported_percentile

RING_N = 20_000
DENSE_N = 4000
DENSE_P = 0.15
SWEEP_N = 300
UPLOAD_N = 400
LIST_SEEDS = 6
WORKERS = 2
CONNECTIONS = 2
BOOTS = 7
# No traffic record exists, so every kind weighs the same, as in
# benchmarks/bench_serve.py; the weights are an assumption, not a
# measurement.
BLOCK = ("ring-greedy", "dense-greedy", "two-sweep", "fast-two-sweep")
BLOCK_SIZE = len(BLOCK) + 1  # the write comes last in every block
WARMUP_STEPS = 4 * BLOCK_SIZE
BOOT_TIMEOUT_S = 120.0

_SERVING = re.compile(r"serving on http://([^:]+):(\d+)")

Upload = Tuple[int, List[Tuple[int, int]], Optional[str]]


class Mix:
    """The seeded request sequence (inputs only; the daemon sees bodies)."""

    def __init__(self, seed: int):
        from repro.sim.parallel import derive_seed

        self._seed = seed
        self._derive = derive_seed
        self._order = random.Random(derive_seed(seed, 0))
        self._blocks: List[Tuple[str, ...]] = []
        # Both client threads ask for kinds; blocks must be drawn in order.
        self._lock = threading.Lock()
        self.dense = {"kind": "gnp-stream", "n": DENSE_N, "p": DENSE_P,
                      "seed": derive_seed(seed, 1)}
        self.ring = {"kind": "ring-stream", "n": RING_N}
        self.sweep = {"kind": "gnp-stream", "n": SWEEP_N, "p": 4.0 / SWEEP_N,
                      "seed": derive_seed(seed, 2)}
        self.list_seeds = [derive_seed(seed, 10 + i)
                           for i in range(LIST_SEEDS)]

    @property
    def prewarm(self) -> List[Dict[str, Any]]:
        return [self.ring, self.dense, self.sweep]

    def kind(self, step: int) -> str:
        block, position = divmod(step, BLOCK_SIZE)
        with self._lock:
            while len(self._blocks) <= block:
                order = list(BLOCK)
                self._order.shuffle(order)
                self._blocks.append(tuple(order))
        return self._blocks[block][position] \
            if position < len(BLOCK) else "graph-color"

    def upload(self, step: int) -> Tuple[int, List[Tuple[int, int]]]:
        from repro.graphs.streaming import gnp_edges

        seed = self._derive(self._seed, 1000 + step)
        return UPLOAD_N, list(gnp_edges(UPLOAD_N, 4.0 / UPLOAD_N, seed))

    def body(self, step: int, kind: str,
             graph_id: Optional[str] = None) -> Dict[str, Any]:
        if kind == "ring-greedy":
            return {"topology": self.ring,
                    "algorithm": {"name": "greedy-reduction"}}
        if kind == "dense-greedy":
            return {"topology": self.dense,
                    "algorithm": {"name": "greedy-reduction"}}
        if kind == "graph-color":
            return {"topology": {"kind": "graph", "id": graph_id},
                    "algorithm": {"name": "greedy-reduction"}}
        algorithm: Dict[str, Any] = {
            "name": kind, "p": 2, "seed": self.list_seeds[step % LIST_SEEDS],
        }
        if kind == "fast-two-sweep":
            algorithm["epsilon"] = 0.25
        return {"topology": self.sweep, "algorithm": algorithm}


class Daemon:
    """``repro serve`` in its own process; stopped with SIGTERM.

    The daemon prints its readiness line just before it installs its
    SIGTERM handler, and a SIGTERM that lands in between kills it
    without closing its pool.  So a boot ends with a ``/stats`` round
    trip (outside ``boot_s``), which the daemon answers only once the
    handler is in place; and :meth:`stop` still kills and reaps any
    worker the daemon left behind.
    """

    def __init__(self, engine: str, prewarm: List[Dict[str, Any]]):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(report.ROOT / "src")
        command = [sys.executable, "-m", "repro", "--engine", engine,
                   "serve", "--workers", str(WORKERS), "--port", "0"]
        for topology in prewarm:
            command += ["--prewarm", json.dumps(topology)]
        begin = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=report.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        BOOT_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else ""
            self.boot_s = time.perf_counter() - begin
            match = _SERVING.search(line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            _stats(self)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop the daemon, then every process it left behind.

        The benchmark runs nothing else in the background, so every
        process still below it at this point is the daemon's.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        procs.stop_descendants()


class Sample:
    """One HTTP request as the client saw it."""

    __slots__ = ("step", "kind", "latency_s", "status", "payload", "traced")

    def __init__(self, step: int, kind: str, latency_s: float, status: int,
                 payload: Dict[str, Any], traced: bool):
        self.step = step
        self.kind = kind
        self.latency_s = latency_s
        self.status = status
        self.payload = payload
        self.traced = traced


class Driver:
    """Closed-loop clients sharing one step counter."""

    def __init__(self, daemon: Daemon, mix: Mix,
                 recorder: Optional[Recorder]):
        self.daemon = daemon
        self.mix = mix
        self.recorder = recorder
        self.samples: List[Sample] = []
        self.uploads: Dict[int, Upload] = {}
        self._lock = threading.Lock()
        self._next = 0

    def _take(self) -> int:
        with self._lock:
            step = self._next
            self._next += 1
            return step

    def _send(self, client: Any, step: int, kind: str, path: str,
              body: Dict[str, Any], traced: bool) -> Dict[str, Any]:
        begin = time.perf_counter()
        try:
            status, payload = client.request("POST", path, body)
        except (OSError, ValueError) as error:
            status, payload = 0, {"status": "error", "error": str(error)}
        end = time.perf_counter()
        with self._lock:
            if traced:
                sid = len(self.recorder.spans)
                self.recorder.spans.append(
                    [sid, None, f"client.{kind}", begin, end, f"step-{step}"])
            self.samples.append(Sample(step, kind, end - begin, status,
                                       payload, traced))
        return payload

    def _step(self, client: Any, step: int, traced: bool) -> None:
        kind = self.mix.kind(step)
        graph_id = None
        if kind == "graph-color":
            n, edges = self.mix.upload(step)
            uploaded = self._send(client, step, "upload", "/graphs",
                                  {"n": n, "edges": edges}, traced)
            graph_id = uploaded.get("id")
            self.uploads[step] = (n, edges, graph_id)
        self._send(client, step, kind, "/color",
                   self.mix.body(step, kind, graph_id), traced)

    def drive(self, first: int, deadline: Optional[float], count: int,
              trace_after: Optional[float]) -> float:
        """Run steps from ``first`` until ``deadline`` (or, without one,
        for ``count`` steps); returns the wall seconds to the last reply."""
        from repro.serve import ServeClient

        self._next = first

        def loop() -> None:
            with ServeClient(self.daemon.host, self.daemon.port) as client:
                while True:
                    now = time.perf_counter()
                    if deadline is not None and now >= deadline:
                        return
                    step = self._take()
                    if deadline is None and step >= first + count:
                        return
                    traced = trace_after is not None and now >= trace_after
                    self._step(client, step, traced)

        begin = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CONNECTIONS) as clients:
            for future in [clients.submit(loop) for _ in range(CONNECTIONS)]:
                future.result()
        return time.perf_counter() - begin


def _reference(mix: Mix, sample: Sample, uploads: Dict[int, Upload],
               cache: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The in-process ``execute_request`` of the same spec (memoized)."""
    from repro.serve import execute_request, parse_request

    body = mix.body(sample.step, sample.kind)
    if sample.kind == "graph-color":
        n, edges, _ = uploads[sample.step]
        body["topology"] = {"kind": "edges", "n": n, "edges": edges}
    key = json.dumps(body, sort_keys=True)
    if key not in cache:
        cache[key] = execute_request(parse_request(body))
    return cache[key]


def _check(mix: Mix, sample: Sample, uploads: Dict[int, Upload],
           cache: Dict[str, Dict[str, Any]]) -> List[str]:
    if sample.status != 200:
        return [f"HTTP {sample.status}: {sample.payload.get('error')}"]
    if sample.kind == "upload":
        from repro.serve.schema import edges_digest

        n, edges, _ = uploads[sample.step]
        return [] if sample.payload.get("id") == edges_digest(n, edges) \
            else ["upload id differs from the edge-list digest"]
    return payload_mismatches(sample.payload,
                              _reference(mix, sample, uploads, cache))


def _stats(daemon: Daemon) -> Dict[str, Any]:
    from repro.serve import ServeClient

    with ServeClient(daemon.host, daemon.port) as client:
        return client.stats()


def _kernel_hits(stats: Dict[str, Any]) -> Tuple[float, float]:
    """Total and NumPy-backed kernel hits from a ``/stats`` snapshot."""
    entry = stats["metrics"].get("repro_kernel_hits_total", {})
    hits = numpy = 0.0
    for sample in entry.get("samples", ()):
        hits += sample["value"]
        if sample["labels"].get("backend") == "numpy":
            numpy += sample["value"]
    return hits, numpy


def run(seed: int, seconds: float, trace: bool, engine: str) -> Outcome:
    from repro.sim.scheduler import set_default_engine

    set_default_engine(engine)
    mix = Mix(seed)
    tally = Tally()
    boots: List[float] = []
    recorder = Recorder() if trace else None
    daemon = None
    try:
        for _ in range(BOOTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(engine, mix.prewarm)
            boots.append(daemon.boot_s)
        driver = Driver(daemon, mix, recorder)
        # Untimed warm-up, on steps far past any the measured loop reaches.
        driver.drive(1_000_000, None, WARMUP_STEPS, None)
        warm_samples, driver.samples = driver.samples, []
        before = _stats(daemon)
        started = time.perf_counter()
        wall = driver.drive(0, started + seconds, 0,
                            started + seconds / 2 if trace else None)
        after = _stats(daemon)
    finally:
        if daemon is not None:
            daemon.stop()

    cache: Dict[str, Dict[str, Any]] = {}
    for sample in warm_samples + driver.samples:
        tally.record(f"step-{sample.step}-{sample.kind}",
                     _check(mix, sample, driver.uploads, cache))
    return _outcome(tally, boots, wall, driver.samples, before, after,
                    recorder)


def _p95_ms(values: List[float]) -> float:
    value = supported_percentile(values, 0.95)
    return 0.0 if value is None else value * 1e3


def _outcome(tally: Tally, boots: List[float], wall: float,
             samples: List[Sample], before: Dict[str, Any],
             after: Dict[str, Any], recorder: Optional[Recorder]) -> Outcome:
    colored = [s for s in samples if s.kind != "upload" and s.status == 200]
    latencies = [s.latency_s for s in samples]
    timings = [s.payload["timing"] for s in colored]
    queue = [t["queue_wait_s"] for t in timings]
    end_to_end = {
        "setup_s": median(boots),
        "success_share": 1.0 - tally.failed_share,
        "nodes_per_s": sum(s.payload["topology"]["n"] for s in colored) / wall,
        "ops_per_s": len(samples) / wall,
        "latency_p50_ms": median(latencies) * 1e3,
        "peak_rss_mb": max((s.payload.get("peak_rss_kb") or 0
                            for s in colored), default=0) / 1024.0,
    }
    kernels = {"runs": 0, "fallbacks": 0}
    caches: Dict[str, Dict[str, int]] = {}
    for s in colored:
        for name, count in s.payload["manifest"]["kernels"].items():
            kernels[name] += count
        for name, counts in s.payload["manifest"]["cache_counters"].items():
            entry = caches.setdefault(name, {"hits": 0, "misses": 0})
            entry["hits"] += counts["hits"]
            entry["misses"] += counts["misses"]
    hits_before, numpy_before = _kernel_hits(before)
    hits_after, numpy_after = _kernel_hits(after)
    batches = after["queue"]["batches"] - before["queue"]["batches"]
    first = min(colored, key=lambda s: s.step) if colored else None
    ledger = first.payload["ledger"] if first is not None else {}
    per_layer: Dict[str, float] = {
        "server.handle_ms_p50":
            median([t["request_wall_s"] for t in timings]) * 1e3,
        "batcher.queue_wait_ms_p50": median(queue) * 1e3,
        "batcher.queue_wait_ms_p95": _p95_ms(queue),
        "batcher.mean_batch": (after["queue"]["batched_requests"]
                               - before["queue"]["batched_requests"])
        / batches if batches else 0.0,
        "pool.dispatch_ms_p50": median([
            t["request_wall_s"] - t["queue_wait_s"] - t["total_s"]
            for t in timings]) * 1e3,
        "client.http_ms_p50": median([
            s.latency_s - s.payload["timing"]["request_wall_s"]
            for s in colored]) * 1e3,
        "client.latency_p95_ms": _p95_ms(latencies),
        "upload.ms_p50": median([s.latency_s for s in samples
                                 if s.kind == "upload"]) * 1e3,
        "pool.restarts": after["pool"]["restarts"]
        - before["pool"]["restarts"],
        "server.rejected": after["requests"]["rejected"]
        - before["requests"]["rejected"],
        "executor.build_s_p50": median([t["build_s"] for t in timings]),
        "executor.solve_s_p50": median([t["solve_s"] for t in timings]),
        "executor.post_s": median([
            t["total_s"] - t["build_s"] - t["solve_s"] for t in timings]),
        "kernels.hit_rate": (kernels["runs"] - kernels["fallbacks"])
        / kernels["runs"] if kernels["runs"] else 0.0,
        "kernels.numpy_share": (numpy_after - numpy_before)
        / (hits_after - hits_before) if hits_after > hits_before else 0.0,
        "ledger.rounds": ledger.get("rounds", 0),
        "ledger.messages": ledger.get("messages", 0),
        # The share of client-observed time the server accounts for.
        "trace.coverage": sum(t["request_wall_s"] for t in timings)
        / sum(s.latency_s for s in colored) if colored else 0.0,
    }
    for kind in report.SERVE_KINDS:
        per_layer[f"latency_p50_ms.{kind}"] = median(
            [s.latency_s for s in samples if s.kind == kind]) * 1e3
    for name in report.CACHE_REGISTRIES:
        counts = caches.get(name, {"hits": 0, "misses": 0})
        lookups = counts["hits"] + counts["misses"]
        per_layer[f"cache.hit_rate.{name}"] = \
            counts["hits"] / lookups if lookups else 0.0
    # No timing shims run in the daemon, so trace.overhead_share stays 0
    # here: traced and untraced halves would differ only by drift.
    by_kind: Dict[str, int] = {}
    for s in samples:
        by_kind[s.kind] = by_kind.get(s.kind, 0) + 1
    return Outcome(
        tally=tally,
        end_to_end=end_to_end,
        per_layer=per_layer,
        samples={"boots": len(boots), "requests": len(samples), **by_kind},
        details={"boot_s": boots, "wall_s": wall, "batches": batches},
        recorder=recorder,
    )
