"""scale-ring: the large-ring greedy-reduction headline.

Each operation is one ``execute_request`` for ``greedy-reduction`` on
``ring-stream`` with n = 250,000 and validation on -- the request
``repro scale`` and the daemon both run.  No HTTP and none of the
paper's sweep kernels.  The ring has no random input, so the seed
changes nothing here.

Requests run two at a time on a 2-worker ``WorkerPool`` (``nproc`` is
2), each whole inside one worker.  On a shared host each core's speed
drifts by up to 20 % over tens of seconds; one process on one core
followed that drift from run to run, two processes on both cores
average it.  n is a quarter of the ROADMAP's 10^6 for the same reason:
more requests per run.  It stays far above ``INTERN_NODE_LIMIT``, so
each request still builds its topology.

Set-up is measured in fresh interpreters (imports plus the small
warm-up request, one process, no pool), several times per run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

from . import report
from .report import Outcome
from .spans import (
    Recorder,
    Tally,
    by_op,
    layer_row,
    median,
    median_rows,
    payload_mismatches,
    traced,
)

N = 250_000
WARMUP_N = 20_000
WORKERS = 2
SETUP_PROBES = 9


def _spec(n: int) -> Dict[str, Any]:
    from repro.serve.schema import parse_request

    return parse_request({
        "topology": {"kind": "ring-stream", "n": n},
        "algorithm": {"name": "greedy-reduction", "validate": True},
    })


def probe(engine: str) -> Dict[str, Any]:
    """Set up as a fresh process would: imports, then the warm-up request."""
    start = time.perf_counter()
    from repro.serve.executor import execute_request
    from repro.sim.scheduler import set_default_engine

    set_default_engine(engine)
    payload = execute_request(_spec(WARMUP_N))
    return {
        "setup_s": time.perf_counter() - start,
        "problems": payload_mismatches(payload, payload),
    }


def _probe_in_subprocess(engine: str) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(report.ROOT / "src"), str(report.ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.scale_ring", "--probe", engine],
        cwd=report.ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def request(index: int, n: int, trace: bool) -> Dict[str, Any]:
    """One request; module-level so pool workers can import it."""
    from repro.serve.executor import counters_delta, execute_request
    from repro.sim.kernels import kernel_stats
    from repro.substrates.cache import cache_counters

    spec = _spec(n)
    recorder = Recorder() if trace else None
    kernels_before = kernel_stats()
    caches_before = cache_counters()
    if recorder is not None:
        recorder.op = f"request-{index}"
        with traced(recorder), \
                recorder.span("serve.executor.execute_request"):
            payload = execute_request(spec)
    else:
        payload = execute_request(spec)
    return {
        "payload": payload,
        "kernels": report.kernel_counts(kernels_before, kernel_stats()),
        "caches": counters_delta(caches_before, cache_counters()),
        "spans": recorder.spans if recorder is not None else None,
    }


def _rate(delta_hits: int, delta_total: int) -> float:
    return delta_hits / delta_total if delta_total else 0.0


def run(seed: int, seconds: float, trace: bool, engine: str) -> Outcome:
    del seed  # ring-stream has no random input
    tally = Tally()
    setups: List[float] = []
    for index in range(SETUP_PROBES):
        probed = _probe_in_subprocess(engine)
        tally.record(f"setup-{index}", probed["problems"])
        setups.append(probed["setup_s"])

    from repro.sim.parallel import WorkerPool, parallel_sweep

    sweep_walls: Dict[bool, List[float]] = {False: [], True: []}
    records: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    worker_rss: List[int] = []
    with WorkerPool(max_workers=WORKERS, engine=engine) as pool:
        pool.warm()
        # Warm-up: every worker imports and runs one small request.
        for record in parallel_sweep(
                request, [{"index": -1 - i, "n": WARMUP_N, "trace": False}
                          for i in range(WORKERS)], pool=pool):
            tally.record(f"warm-up{record['index']}",
                         payload_mismatches(record["payload"],
                                            record["payload"]))
        started = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (records[True] or not trace):
                break
            is_traced = trace and elapsed >= seconds / 2
            swept = parallel_sweep(
                request,
                [{"index": i, "n": N, "trace": is_traced}
                 for i in range(index, index + WORKERS)],
                pool=pool, report=True, timing=True)
            index += WORKERS
            sweep_walls[is_traced].append(swept.wall_s)
            records[is_traced].extend(swept)
            worker_rss.extend(w["rss_kb"] for w in swept.workers
                              if w.get("rss_kb"))

    every = sorted(records[False] + records[True],
                   key=lambda record: record["index"])
    reference = every[0]["payload"]
    for record in every:
        tally.record(f"request-{record['index']}",
                     payload_mismatches(record["payload"], reference))

    untraced = records[False]
    walls = [record["wall_s"] for record in untraced]
    sweep_wall = sum(sweep_walls[False])
    end_to_end = {
        "setup_s": median(setups),
        "success_share": 1.0 - tally.failed_share,
        "nodes_per_s": N * len(untraced) / sweep_wall,
        "ops_per_s": len(untraced) / sweep_wall,
        "latency_p50_ms": median(walls) * 1e3,
        "peak_rss_mb": max(worker_rss, default=0) / 1024.0,
    }
    kernels = {"runs": 0, "hits": 0, "numpy_hits": 0}
    caches: Dict[str, Dict[str, int]] = {}
    for record in every:
        for name, count in record["kernels"].items():
            kernels[name] += count
        for name, counts in record["caches"].items():
            entry = caches.setdefault(name, {"hits": 0, "misses": 0})
            entry["hits"] += counts["hits"]
            entry["misses"] += counts["misses"]
    timings = [record["payload"]["timing"] for record in every]
    ledger = reference.get("ledger") or {}
    per_layer: Dict[str, float] = {
        "executor.build_s_p50": median([t["build_s"] for t in timings]),
        "executor.solve_s_p50": median([t["solve_s"] for t in timings]),
        "executor.post_s": median([
            t["total_s"] - t["build_s"] - t["solve_s"] for t in timings
        ]),
        "kernels.hit_rate": _rate(kernels["hits"], kernels["runs"]),
        "kernels.numpy_share": _rate(kernels["numpy_hits"], kernels["hits"]),
        "ledger.rounds": ledger.get("rounds", 0),
        "ledger.messages": ledger.get("messages", 0),
    }
    for name in report.CACHE_REGISTRIES:
        counts = caches.get(name, {"hits": 0, "misses": 0})
        per_layer[f"cache.hit_rate.{name}"] = _rate(
            counts["hits"], counts["hits"] + counts["misses"])
    recorder = None
    if trace:
        recorder = Recorder()
        for record in records[True]:
            recorder.adopt(record["spans"])
        per_layer.update(median_rows(
            [layer_row(tree) for tree in by_op(recorder.spans).values()]))
        per_layer["trace.overhead_share"] = median(
            [record["wall_s"] for record in records[True]]) / median(walls) - 1.0
    return Outcome(
        tally=tally,
        end_to_end=end_to_end,
        per_layer=per_layer,
        samples={"setups": len(setups), "requests": len(untraced),
                 "traced_requests": len(records[True]),
                 "sweeps": len(sweep_walls[False])},
        details={"request_walls_s": walls, "setup_s": setups},
        recorder=recorder,
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        print(json.dumps(probe(sys.argv[2])))
