"""oldc-sweep: the paper's Two-Sweep and Fast-Two-Sweep as a researcher runs them.

``parallel_sweep`` fans seeded trials out over a 2-worker
``WorkerPool``.  Each trial streams G(n, p) with mean degree 4, orients
it by id, draws two random OLDC instances (one plain, one for
epsilon = 0.25), runs ``two_sweep`` with p = 2 and ``fast_two_sweep``
with epsilon = 0.25 (q = n: thousands of rounds) and checks both
results with ``check_oldc``.  The seed fixes every G(n, p) and list
seed; nothing else is random.

Set-up is a fresh pool ready for trials: ``WorkerPool`` construction,
``warm()`` and one warm-up trial per worker (which pays the workers'
imports), repeated several times per run.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import nullcontext
from typing import Any, Dict, List

from . import report
from .report import Outcome
from .spans import (
    Recorder,
    Tally,
    by_op,
    install,
    layer_row,
    median,
    median_rows,
    uninstall,
)

N = 2000
MEAN_DEGREE = 4.0
P = 2
EPSILON = 0.25
WORKERS = 2
SWEEP_TRIALS = 2 * WORKERS
POOL_SETUPS = 7


def _checksum(*colorings: Dict[Any, int]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for colors in colorings:
        for node in sorted(colors, key=repr):
            hasher.update(f"{node!r}={colors[node]}:".encode())
        hasher.update(b"|")
    return hasher.hexdigest()


def trial(index: int, gnp_seed: int, list_seed: int,
          trace: bool) -> Dict[str, Any]:
    """One seeded trial; module-level so pool workers can import it.

    Entry points are called through their modules (``repro.core``
    re-exports ``two_sweep`` under its submodule's name, hence
    ``import_module``), so the timing shims see every call.
    """
    from importlib import import_module

    from repro.graphs import identifiers
    from repro.serve.executor import counters_delta
    from repro.sim.kernels import kernel_stats
    from repro.sim.metrics import CostLedger
    from repro.substrates.cache import cache_counters

    streaming = import_module("repro.graphs.streaming")
    oriented = import_module("repro.graphs.oriented")
    random_instances = import_module("repro.coloring.random_instances")
    two_sweep = import_module("repro.core.two_sweep")
    fast_two_sweep = import_module("repro.core.fast_two_sweep")
    validate = import_module("repro.coloring.validate")
    recorder = Recorder() if trace else None
    kernels_before = kernel_stats()
    caches_before = cache_counters()
    if recorder is not None:
        recorder.op = f"trial-{index}"
        install(recorder)
        root = recorder.open("bench.trial")
    try:
        compiled = streaming.stream_gnp(N, MEAN_DEGREE / (N - 1), gnp_seed)
        graph = oriented.orient_by_id(compiled)
        plain = random_instances.random_oldc_instance(
            graph, p=P, seed=list_seed, epsilon=0.0)
        fast = random_instances.random_oldc_instance(
            graph, p=P, seed=list_seed, epsilon=EPSILON)
        ids = identifiers.sequential_ids(compiled)
        ledgers = (CostLedger(), CostLedger())
        swept = two_sweep.two_sweep(plain, ids, N, P, ledger=ledgers[0])
        fasted = fast_two_sweep.fast_two_sweep(fast, ids, N, P, EPSILON,
                                               ledger=ledgers[1])
        violations = validate.check_oldc(plain, swept.colors) \
            + validate.check_oldc(fast, fasted.colors)
        with (recorder.span("bench.checksum") if recorder is not None
              else nullcontext()):
            checksum = _checksum(swept.colors, fasted.colors)
    finally:
        if recorder is not None:
            recorder.close(root)
            uninstall()
    return {
        "n": compiled.n,
        "violations": len(violations),
        "checksum": checksum,
        "ledger": [ledger.to_dict() for ledger in ledgers],
        "pid": os.getpid(),
        "kernels": report.kernel_counts(kernels_before, kernel_stats()),
        "caches": counters_delta(caches_before, cache_counters()),
        "spans": recorder.spans if recorder is not None else None,
    }


def _params(seed: int, index: int, trace: bool) -> Dict[str, Any]:
    from repro.sim.parallel import derive_seed

    return {"index": index, "gnp_seed": derive_seed(seed, 2 * index),
            "list_seed": derive_seed(seed, 2 * index + 1), "trace": trace}


def _check(record: Dict[str, Any]) -> List[str]:
    problems = []
    if record["violations"]:
        problems.append(f"{record['violations']} OLDC violations")
    if not all(ledger["rounds"] for ledger in record["ledger"]):
        problems.append("a sweep ran zero rounds")
    return problems


def run(seed: int, seconds: float, trace: bool, engine: str) -> Outcome:
    from repro.sim.parallel import WorkerPool, parallel_sweep
    from repro.sim.scheduler import set_default_engine, use_engine

    set_default_engine(engine)
    tally = Tally()
    setups: List[float] = []
    pool = None
    sweep_walls: Dict[bool, List[float]] = {False: [], True: []}
    records: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    worker_rss: List[int] = []
    pool_starts: List[float] = []
    try:
        for attempt in range(POOL_SETUPS):
            if pool is not None:
                pool.close()
            begin = time.perf_counter()
            pool = WorkerPool(max_workers=WORKERS, engine=engine)
            pool.warm()
            pool_starts.append(time.perf_counter() - begin)
            # Warm-up: every fresh worker imports and runs one trial.
            warm = parallel_sweep(
                trial,
                [_params(seed, -1 - WORKERS * attempt - i, False)
                 for i in range(WORKERS)],
                pool=pool)
            setups.append(time.perf_counter() - begin)
            for record in warm:
                tally.record(f"warm-up{record['index']}", _check(record))
        started = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (records[True] or not trace):
                break
            is_traced = trace and elapsed >= seconds / 2
            swept = parallel_sweep(
                trial,
                [_params(seed, i, is_traced)
                 for i in range(index, index + SWEEP_TRIALS)],
                pool=pool, report=True, timing=True)
            index += SWEEP_TRIALS
            sweep_walls[is_traced].append(swept.wall_s)
            records[is_traced].extend(swept)
            worker_rss.extend(w["rss_kb"] for w in swept.workers
                              if w.get("rss_kb"))
        pool_stats = pool.stats()
    finally:
        if pool is not None:
            pool.close()

    every = records[False] + records[True]
    for record in every:
        tally.record(f"trial-{record['index']}", _check(record))
    # Re-run one sampled trial serially here: same checksum, same ledger.
    sample = random.Random(seed).choice(every)
    with use_engine(engine):
        again = trial(sample["index"], sample["gnp_seed"],
                      sample["list_seed"], False)
    problems = _check(again)
    if again["checksum"] != sample["checksum"]:
        problems.append("serial re-run checksum differs")
    if again["ledger"] != sample["ledger"]:
        problems.append("serial re-run ledger differs")
    tally.record(f"rerun-{sample['index']}", problems)

    untraced = records[False]
    walls = [record["wall_s"] for record in untraced]
    sweep_wall = sum(sweep_walls[False])
    busy: Dict[int, float] = {}
    for record in untraced:
        busy[record["pid"]] = busy.get(record["pid"], 0.0) + record["wall_s"]
    kernels = {"runs": 0, "hits": 0, "numpy_hits": 0}
    caches: Dict[str, Dict[str, int]] = {}
    for record in every:
        for name, count in record["kernels"].items():
            kernels[name] += count
        for name, counts in record["caches"].items():
            entry = caches.setdefault(name, {"hits": 0, "misses": 0})
            entry["hits"] += counts["hits"]
            entry["misses"] += counts["misses"]
    first = min(every, key=lambda record: record["index"])

    end_to_end = {
        "setup_s": median(setups),
        "success_share": 1.0 - tally.failed_share,
        "nodes_per_s": sum(record["n"] for record in untraced) / sweep_wall,
        "ops_per_s": len(untraced) / sweep_wall,
        "latency_p50_ms": median(walls) * 1e3,
        "peak_rss_mb": max(worker_rss, default=0) / 1024.0,
    }
    per_layer: Dict[str, float] = {
        "parallel.pool_start_s": median(pool_starts),
        "parallel.busy_share": sum(walls) / (pool_stats["workers"] * sweep_wall),
        "parallel.skew": max(busy.values()) / (sum(busy.values()) / len(busy)),
        "kernels.hit_rate": kernels["hits"] / kernels["runs"]
        if kernels["runs"] else 0.0,
        "kernels.numpy_share": kernels["numpy_hits"] / kernels["hits"]
        if kernels["hits"] else 0.0,
        "ledger.rounds": sum(ledger["rounds"] for ledger in first["ledger"]),
        "ledger.messages": sum(ledger["messages"]
                               for ledger in first["ledger"]),
    }
    for name in report.CACHE_REGISTRIES:
        counts = caches.get(name, {"hits": 0, "misses": 0})
        lookups = counts["hits"] + counts["misses"]
        per_layer[f"cache.hit_rate.{name}"] = \
            counts["hits"] / lookups if lookups else 0.0
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
        samples={"setups": len(setups), "trials": len(untraced),
                 "traced_trials": len(records[True]),
                 "sweeps": len(sweep_walls[False])},
        details={"pool": pool_stats, "setup_s": setups, "pool_start_s": pool_starts,
                 "rerun_trial": sample["index"]},
        recorder=recorder,
    )
