"""Live metrics console: the ``repro top`` command.

Turns a registry snapshot -- scraped from a running daemon's ``/stats``
endpoint or read back from a ``--metrics`` JSONL flush file -- into a
small operator dashboard: request throughput and latency percentiles,
queue pressure, pool occupancy, kernel hit-rate and cache hit-rates.
One-shot by default; ``--watch`` repaints in place.

The module is deliberately source-agnostic: :func:`summarize_metrics`
consumes the plain-dict snapshot shape produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`, wherever it came
from, so the same renderer serves live daemons, flushed batch runs, and
tests.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .metrics import read_metrics_jsonl, sample_quantile

__all__ = [
    "summarize_metrics",
    "render_top",
    "snapshot_from_url",
    "snapshot_from_jsonl",
    "watch",
]


# ----------------------------------------------------------------------
# Snapshot accessors
# ----------------------------------------------------------------------
def _samples(snap: Mapping[str, Any], name: str) -> List[Dict[str, Any]]:
    entry = snap.get(name)
    if not isinstance(entry, Mapping):
        return []
    return list(entry.get("samples", ()))


def _matches(labels: Mapping[str, str],
             where: Optional[Mapping[str, str]]) -> bool:
    if not where:
        return True
    return all(labels.get(k) == v for k, v in where.items())


def _sum_values(snap: Mapping[str, Any], name: str,
                where: Optional[Mapping[str, str]] = None) -> float:
    total = 0.0
    for sample in _samples(snap, name):
        if _matches(sample.get("labels", {}), where):
            total += float(sample.get("value", 0.0))
    return total


def _gauge(snap: Mapping[str, Any], name: str) -> Optional[float]:
    samples = _samples(snap, name)
    if not samples:
        return None
    return float(samples[0].get("value", 0.0))


def _hist(snap: Mapping[str, Any], name: str) -> Dict[str, Any]:
    """Aggregate a histogram's samples into count/sum/p50/p99."""
    entry = snap.get(name)
    if not isinstance(entry, Mapping):
        return {"count": 0, "sum": 0.0, "p50": None, "p99": None,
                "mean": None}
    buckets = list(entry.get("buckets", ()))
    counts: Optional[List[int]] = None
    total_sum, total_count = 0.0, 0
    maximum: Optional[float] = None
    for sample in entry.get("samples", ()):
        sample_counts = list(sample.get("counts", ()))
        if counts is None:
            counts = [0] * len(sample_counts)
        for i, c in enumerate(sample_counts):
            counts[i] += int(c)
        total_sum += float(sample.get("sum", 0.0))
        total_count += int(sample.get("count", 0))
        sample_max = sample.get("max")
        if sample_max is not None and not (
                isinstance(sample_max, float) and math.isnan(sample_max)):
            maximum = (sample_max if maximum is None
                       else max(maximum, sample_max))
    if not counts or total_count == 0:
        return {"count": 0, "sum": 0.0, "p50": None, "p99": None,
                "mean": None}
    return {
        "count": total_count,
        "sum": total_sum,
        "p50": sample_quantile(buckets, counts, 0.50, maximum),
        "p99": sample_quantile(buckets, counts, 0.99, maximum),
        "mean": total_sum / total_count,
    }


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
def summarize_metrics(snap: Mapping[str, Any],
                      uptime_s: Optional[float] = None) -> Dict[str, Any]:
    """Reduce a registry snapshot to the quantities ``repro top`` shows.

    ``uptime_s`` (from ``/stats`` or the ``repro_uptime_seconds`` gauge)
    turns cumulative counters into naive whole-life rates; watch mode
    replaces those with deltas between repaints.
    """
    if uptime_s is None:
        uptime_s = _gauge(snap, "repro_uptime_seconds")

    http_total = _sum_values(snap, "repro_http_requests_total")
    http_ok = _sum_values(snap, "repro_http_requests_total",
                          {"code": "200"})
    request = _hist(snap, "repro_request_seconds")
    queue_wait = _hist(snap, "repro_queue_wait_seconds")

    hits = _sum_values(snap, "repro_kernel_dispatch_total",
                       {"outcome": "hit"})
    fallbacks = _sum_values(snap, "repro_kernel_dispatch_total",
                            {"outcome": "fallback"})
    dispatches = hits + fallbacks

    caches: Dict[str, Dict[str, float]] = {}
    for sample in _samples(snap, "repro_cache_lookups_total"):
        labels = sample.get("labels", {})
        registry = labels.get("registry", "?")
        bucket = caches.setdefault(registry, {"hit": 0.0, "miss": 0.0})
        outcome = labels.get("outcome")
        if outcome in bucket:
            bucket[outcome] += float(sample.get("value", 0.0))
    cache_rates = {
        registry: {
            "hits": c["hit"],
            "misses": c["miss"],
            "rate": (c["hit"] / (c["hit"] + c["miss"])
                     if c["hit"] + c["miss"] else None),
        }
        for registry, c in sorted(caches.items())
    }

    engines = {}
    for sample in _samples(snap, "repro_sim_runs_total"):
        engine = sample.get("labels", {}).get("engine", "?")
        engines[engine] = engines.get(engine, 0.0) + float(
            sample.get("value", 0.0))

    return {
        "uptime_s": uptime_s,
        "requests": {
            "total": http_total,
            "ok": http_ok,
            "per_s": (http_total / uptime_s
                      if uptime_s and uptime_s > 0 else None),
            "p50_s": request["p50"],
            "p99_s": request["p99"],
            "mean_s": request["mean"],
            "count": request["count"],
        },
        "queue": {
            "depth": _gauge(snap, "repro_queue_depth"),
            "wait_p50_s": queue_wait["p50"],
            "wait_p99_s": queue_wait["p99"],
            "dispatched": queue_wait["count"],
        },
        "pool": {
            "workers": _gauge(snap, "repro_pool_workers"),
            "in_flight": _gauge(snap, "repro_pool_in_flight"),
            "submitted": _sum_values(snap,
                                     "repro_pool_tasks_submitted_total"),
            "completed": _sum_values(snap,
                                     "repro_pool_tasks_completed_total"),
        },
        "kernels": {
            "hits": hits,
            "fallbacks": fallbacks,
            "hit_rate": hits / dispatches if dispatches else None,
        },
        "caches": cache_rates,
        "sim": {
            "runs_by_engine": engines,
            "rounds": _sum_values(snap, "repro_sim_rounds_total"),
            "messages": _sum_values(snap, "repro_sim_messages_total"),
        },
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: Any, unit: str = "", scale: float = 1.0,
         digits: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    scaled = float(value) * scale
    if unit == "%":
        return f"{scaled * 100.0:.{digits}f}%"
    if abs(scaled - round(scaled)) < 1e-9 and abs(scaled) < 1e15:
        return f"{int(round(scaled)):,}{unit}"
    return f"{scaled:,.{digits}f}{unit}"


def render_top(summary: Mapping[str, Any],
               source: str = "",
               rate_per_s: Optional[float] = None) -> str:
    """One text frame of the dashboard.

    ``rate_per_s`` overrides the whole-life request rate with a
    windowed one (watch mode computes it between repaints).
    """
    req = summary["requests"]
    queue = summary["queue"]
    pool = summary["pool"]
    kernels = summary["kernels"]
    sim = summary["sim"]
    per_s = rate_per_s if rate_per_s is not None else req["per_s"]

    lines = ["repro top" + (f" -- {source}" if source else "")]
    if summary.get("uptime_s") is not None:
        lines[0] += f"  (up {summary['uptime_s']:.0f}s)"
    lines.append(
        f"requests  total={_fmt(req['total'])}  ok={_fmt(req['ok'])}  "
        f"rate={_fmt(per_s, '/s')}  "
        f"p50={_fmt(req['p50_s'], 'ms', 1000.0)}  "
        f"p99={_fmt(req['p99_s'], 'ms', 1000.0)}"
    )
    lines.append(
        f"queue     depth={_fmt(queue['depth'])}  "
        f"wait p50={_fmt(queue['wait_p50_s'], 'ms', 1000.0)}  "
        f"p99={_fmt(queue['wait_p99_s'], 'ms', 1000.0)}  "
        f"dispatched={_fmt(queue['dispatched'])}"
    )
    lines.append(
        f"pool      workers={_fmt(pool['workers'])}  "
        f"in-flight={_fmt(pool['in_flight'])}  "
        f"submitted={_fmt(pool['submitted'])}  "
        f"completed={_fmt(pool['completed'])}"
    )
    lines.append(
        f"kernels   hits={_fmt(kernels['hits'])}  "
        f"fallbacks={_fmt(kernels['fallbacks'])}  "
        f"hit-rate={_fmt(kernels['hit_rate'], '%')}"
    )
    if summary["caches"]:
        parts = [
            f"{name}={_fmt(stats['rate'], '%')} "
            f"({_fmt(stats['hits'])}/{_fmt(stats['hits'] + stats['misses'])})"
            for name, stats in summary["caches"].items()
        ]
        lines.append("caches    " + "  ".join(parts))
    else:
        lines.append("caches    -")
    engines = ", ".join(
        f"{name} x{int(count)}"
        for name, count in sorted(sim["runs_by_engine"].items())
    ) or "-"
    lines.append(
        f"sim       runs: {engines}  rounds={_fmt(sim['rounds'])}  "
        f"messages={_fmt(sim['messages'])}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
def snapshot_from_url(url: str, timeout: float = 10.0
                      ) -> Tuple[Dict[str, Any], Optional[float]]:
    """Scrape a live daemon's ``/stats``; returns (snapshot, uptime_s).

    ``url`` may be ``host:port`` or a full ``http://host:port`` base;
    the ``/stats`` path is appended when missing.
    """
    from urllib.request import urlopen

    if "//" not in url:
        url = "http://" + url
    if not url.rstrip("/").endswith("/stats"):
        url = url.rstrip("/") + "/stats"
    with urlopen(url, timeout=timeout) as response:  # noqa: S310 - http
        payload = json.loads(response.read().decode("utf-8"))
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(
            f"{url} returned no metrics section (old server?)"
        )
    return metrics, payload.get("uptime_s")


def snapshot_from_jsonl(path: str
                        ) -> Tuple[Dict[str, Any], Optional[float]]:
    """Read the latest flushed snapshot from a ``--metrics`` JSONL file."""
    records = read_metrics_jsonl(path)
    if not records:
        raise ValueError(f"no metrics records in {path}")
    last = records[-1]
    metrics = last.get("metrics", {})
    return metrics, None


# ----------------------------------------------------------------------
# Watch loop
# ----------------------------------------------------------------------
def watch(fetch, interval_s: float = 2.0, iterations: Optional[int] = None,
          out=None, clear: bool = True) -> int:
    """Repaint ``render_top`` frames until interrupted.

    ``fetch`` returns ``(snapshot, uptime_s, source_label)``; the loop
    computes a windowed request rate from successive frames.
    ``iterations`` bounds the loop for tests; ``None`` runs until
    Ctrl-C.  Returns an exit status.
    """
    import sys

    stream = out if out is not None else sys.stdout
    previous: Optional[Tuple[float, float]] = None  # (monotonic, total)
    frame = 0
    while iterations is None or frame < iterations:
        try:
            snap, uptime_s, label = fetch()
        except (OSError, ValueError) as error:
            print(f"repro top: {error}", file=stream)
            return 1
        summary = summarize_metrics(snap, uptime_s)
        now = time.monotonic()
        total = summary["requests"]["total"]
        rate = None
        if previous is not None and now > previous[0]:
            rate = max(0.0, (total - previous[1]) / (now - previous[0]))
        previous = (now, total)
        text = render_top(summary, source=label, rate_per_s=rate)
        if clear and frame:
            # Home the cursor and clear below: repaint without scroll.
            print("\x1b[H\x1b[J", end="", file=stream)
        print(text, file=stream, flush=True)
        frame += 1
        if iterations is not None and frame >= iterations:
            break
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            break
    return 0
