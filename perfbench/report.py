"""Metric names, units, provenance and the result line.

The tables here and ``BENCHMARK.json`` name the same metrics (a test
keeps them in step).  Every workload prints every metric: a per-layer
metric whose layer the workload does not reach, or whose percentile the
sample cannot support, reads 0.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .spans import Recorder, Tally

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "success_share": "ratio",
    "nodes_per_s": "1/s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Registries counted by ``substrates.cache.cache_counters``.
CACHE_REGISTRIES = ("topologies", "networks", "families", "proper_schedule",
                    "defective_schedule")

#: Request kinds of the serve-mixed traffic mix.
SERVE_KINDS = ("ring-greedy", "dense-greedy", "two-sweep", "fast-two-sweep",
               "graph-color")

#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    "streaming.build_s": "s",
    "streaming.seed_s": "s",
    "greedy.programs_s": "s",
    "scheduler.self_s": "s",
    "kernels.prepare_s": "s",
    "kernels.step_s": "s",
    "kernels.finalize_s": "s",
    "kernels.steps": "count",
    "kernels.hit_rate": "ratio",
    "kernels.numpy_share": "ratio",
    "executor.solve_self_s": "s",
    "executor.post_s": "s",
    "executor.build_s_p50": "s",
    "executor.solve_s_p50": "s",
    "ledger.rounds": "count",
    "ledger.messages": "count",
    "oriented.orient_s": "s",
    "instances.build_s": "s",
    "two_sweep.solve_s": "s",
    "fast_two_sweep.solve_s": "s",
    "validate.check_s": "s",
    "parallel.pool_start_s": "s",
    "parallel.busy_share": "ratio",
    "parallel.skew": "ratio",
    **{f"cache.hit_rate.{name}": "ratio" for name in CACHE_REGISTRIES},
    "server.handle_ms_p50": "ms",
    "batcher.queue_wait_ms_p50": "ms",
    "batcher.queue_wait_ms_p95": "ms",
    "batcher.mean_batch": "count",
    "pool.dispatch_ms_p50": "ms",
    "client.http_ms_p50": "ms",
    "client.latency_p95_ms": "ms",
    "upload.ms_p50": "ms",
    **{f"latency_p50_ms.{kind}": "ms" for kind in SERVE_KINDS},
    "pool.restarts": "count",
    "server.rejected": "count",
    "trace.overhead_share": "ratio",
    "trace.coverage": "ratio",
}


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    tally: Tally
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    recorder: Optional[Recorder] = None


def kernel_counts(before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, int]:
    """Kernel runs, hits and NumPy-backed hits between two
    ``kernel_stats()`` snapshots."""
    numpy_hits = sum(
        count - before["by_backend"].get(name, 0)
        for name, count in after["by_backend"].items()
        if name.endswith("[numpy]")
    )
    return {"runs": after["runs"] - before["runs"],
            "hits": after["hits"] - before["hits"], "numpy_hits": numpy_hits}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, engine: str) -> Dict[str, Any]:
    """The repo's own run manifest, plus what it lacks: ``nproc`` and
    the CPU model."""
    from repro.obs.manifest import collect_manifest
    from repro.sim import arrays

    manifest = collect_manifest(engine=engine)
    return {
        "workload": workload,
        "seed": seed,
        "engine": manifest["engine"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": manifest["python"],
        "numpy": (manifest["arrays"] or {}).get("numpy"),
        "arrays_backend": arrays.backend_name(),
        "git": manifest["git"],
    }


def result_line(outcome: Outcome, trace: bool) -> str:
    """The final stdout line: ``correct``, ``attempted``, ``failed``,
    ``metrics``."""
    if trace:
        values = {name: outcome.per_layer.get(name, 0.0)
                  for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = outcome.end_to_end
        units = END_TO_END
    return json.dumps({
        "correct": outcome.tally.correct,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    })


def write_spans(recorder: Recorder, path: pathlib.Path) -> None:
    """Write a run's spans once, at the end, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for sid, parent, name, start, end, op in recorder.spans:
            out.write(json.dumps({
                "id": sid, "parent": parent, "name": name,
                "start": start, "end": end, "op": op,
            }) + "\n")


def span_table(summary: Dict[str, Dict[str, float]], ops: int) -> List[str]:
    """Human-readable per-span self times (stdout, before the result)."""
    lines = [f"{'span':44} {'calls':>8} {'total s/op':>11} {'self s/op':>10}"]
    for name, entry in sorted(summary.items(),
                              key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:44} {entry['calls']:>8} "
            f"{entry['total_s'] / max(ops, 1):>11.4f} "
            f"{entry['self_s'] / max(ops, 1):>10.4f}"
        )
    return lines
