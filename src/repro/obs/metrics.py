"""Process-wide metrics registry: counters, gauges, histograms.

Kernel dispatch decisions, shared-topology lookups, scheduler runs,
pool occupancy and the daemon's requests all land in one place: a
dependency-free registry of :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` metrics with labeled children, an atomic
:func:`snapshot`, :func:`merge` for rebasing child-process snapshots
onto the parent, and a Prometheus text :func:`exposition` for the serve
daemon's ``GET /metrics``.

Design rules, in priority order:

*Observation must not change results.*  No result depends on a metric:
the scheduler reads the kernel counts back only for physical trace
fields.  The registry is the only store of kernel and topology-lookup
counts: ``kernel_stats()`` and ``cache_counters()`` are read-only views
over their families (:meth:`MetricsRegistry.values`), so a merged
worker delta shows up in them exactly as in ``snapshot()``.

*One registry object, forever.*  :func:`reset_metrics` clears values in
place instead of swapping the registry, so module-level handles cached
by hot paths (the scheduler's per-engine counters) never dangle.

*Snapshots are plain data.*  ``snapshot()`` returns JSON-ready dicts --
they ship through process pools, land in manifests and JSONL flushes,
and ``merge()`` accepts them back.  Counters and histogram buckets add
under merge; gauges are last-write-wins.

The histogram quantile and the serve daemon's ``percentile()`` share one
ceil-based nearest-rank rule (:func:`nearest_rank`), so the rolling
latency window and the histogram view agree on what "p99" means.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from typing import (Any, Dict, IO, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricError", "MetricsFlusher",
    "MetricsRegistry", "REGISTRY", "counter", "gauge", "histogram",
    "exposition", "log_buckets", "merge", "nearest_rank", "percentile",
    "record_run", "reset_metrics", "sample_quantile", "snapshot",
    "snapshot_delta", "LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


class MetricError(ValueError):
    """Registry misuse: bad names, kind clashes, mismatched buckets."""


# ----------------------------------------------------------------------
# Shared rank / quantile helpers
# ----------------------------------------------------------------------
def nearest_rank(count: int, fraction: float) -> int:
    """The 1-based upper nearest rank for ``fraction`` of ``count``.

    Ceil-based: ``rank = min(count, floor(fraction * count) + 1)`` --
    equivalently ``ceil(fraction * count + 0.5)`` clamped -- the
    smallest rank with *strictly more* than ``fraction`` of the mass at
    or below it.  p50 of two samples is the *second* one, so a reported
    latency percentile never understates (contrast ``round()``, whose
    banker's rounding made p50 of ``[1, 2]`` resolve to rank 1).
    ``fraction`` must satisfy ``0 < fraction <= 1`` (a zeroth percentile
    has no nearest-rank meaning and historically leaked the minimum).
    """
    if not 0.0 < fraction <= 1.0:
        raise MetricError(
            f"fraction must be in (0, 1], got {fraction!r}"
        )
    if count <= 0:
        raise MetricError(f"count must be positive, got {count!r}")
    return min(count, math.floor(fraction * count) + 1)


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Ceil-based nearest-rank percentile of ``values``.

    Returns ``None`` for an empty sequence; raises ``ValueError`` unless
    ``0 < fraction <= 1``.  This is the same rank rule
    :meth:`Histogram.quantile` applies to its buckets, so the daemon's
    rolling window and the histogram view agree.
    """
    if not 0.0 < fraction <= 1.0:
        raise MetricError(
            f"fraction must be in (0, 1], got {fraction!r}"
        )
    if not values:
        return None
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), fraction) - 1]


def log_buckets(lo: float, hi: float, per_decade: int = 3
                ) -> Tuple[float, ...]:
    """Fixed log-scale bucket upper bounds from ``lo`` to ``hi``.

    ``per_decade`` bounds per factor of 10, rounded to clean figures.
    The returned edges are finite; every histogram implicitly appends a
    ``+Inf`` overflow bucket.
    """
    if lo <= 0 or hi <= lo:
        raise MetricError(f"need 0 < lo < hi, got {lo!r}, {hi!r}")
    if per_decade < 1:
        raise MetricError(f"per_decade must be >= 1, got {per_decade!r}")
    edges: List[float] = []
    k = math.ceil(math.log10(lo) * per_decade - 1e-9)
    while True:
        edge = float(f"{10.0 ** (k / per_decade):.6g}")
        if edge > hi * (1 + 1e-9):
            break
        edges.append(edge)
        k += 1
    if not edges or edges[-1] < hi * (1 - 1e-9):
        edges.append(float(f"{hi:.6g}"))
    return tuple(edges)


#: Default buckets for wall-clock latencies in seconds: 100us .. 100s.
LATENCY_BUCKETS = log_buckets(1e-4, 100.0, per_decade=3)


def sample_quantile(buckets: Sequence[float], counts: Sequence[int],
                    fraction: float,
                    maximum: Optional[float] = None) -> Optional[float]:
    """Nearest-rank quantile over histogram ``counts`` per ``buckets``.

    ``counts`` has one entry per finite bucket edge plus a final
    overflow entry.  Returns the upper edge of the bucket holding the
    nearest rank (clamped to the tracked ``maximum`` when known), or
    ``None`` for an empty histogram.
    """
    total = sum(counts)
    if total <= 0:
        return None
    rank = nearest_rank(total, fraction)
    cumulative = 0
    for edge, count in zip(buckets, counts):
        cumulative += count
        if rank <= cumulative:
            if maximum is not None and maximum < edge:
                return maximum
            return edge
    # Rank lands in the +Inf overflow bucket: the tracked max is the
    # only finite bound available.
    return maximum


# ----------------------------------------------------------------------
# Metric kinds
# ----------------------------------------------------------------------
def _validate_labels(labelnames: Tuple[str, ...],
                     labels: Mapping[str, Any]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Handle:
    """A bound (metric, label-values) accessor.

    Handles survive :func:`reset_metrics`: they key into the metric's
    cell dict on every update, so clearing the dict just means the next
    update recreates the cell.
    """

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "_Metric", key: Tuple[str, ...]):
        self._metric = metric
        self._key = key


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str,
                 labelnames: Tuple[str, ...], registry: "MetricsRegistry"):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise MetricError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._lock = registry._lock
        self._cells: Dict[Tuple[str, ...], Any] = {}

    def _default_key(self) -> Tuple[str, ...]:
        if self.labelnames:
            raise MetricError(
                f"{self.name} declares labels {self.labelnames}; "
                f"use .labels(...)"
            )
        return ()


class CounterHandle(_Handle):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self._metric.name} cannot decrease "
                f"(inc({amount!r}))"
            )
        metric = self._metric
        with metric._lock:
            cells = metric._cells
            cells[self._key] = cells.get(self._key, 0.0) + amount

    def value(self) -> float:
        metric = self._metric
        with metric._lock:
            return metric._cells.get(self._key, 0.0)


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def labels(self, **labels: Any) -> CounterHandle:
        return CounterHandle(
            self, _validate_labels(self.labelnames, labels))

    def inc(self, amount: float = 1.0) -> None:
        CounterHandle(self, self._default_key()).inc(amount)

    def value(self) -> float:
        return CounterHandle(self, self._default_key()).value()


class GaugeHandle(_Handle):
    __slots__ = ()

    def set(self, value: float) -> None:
        metric = self._metric
        with metric._lock:
            metric._cells[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        metric = self._metric
        with metric._lock:
            cells = metric._cells
            cells[self._key] = cells.get(self._key, 0.0) + amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        metric = self._metric
        with metric._lock:
            return metric._cells.get(self._key, 0.0)


class Gauge(_Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def labels(self, **labels: Any) -> GaugeHandle:
        return GaugeHandle(self, _validate_labels(self.labelnames, labels))

    def set(self, value: float) -> None:
        GaugeHandle(self, self._default_key()).set(value)

    def inc(self, amount: float = 1.0) -> None:
        GaugeHandle(self, self._default_key()).inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        GaugeHandle(self, self._default_key()).dec(amount)

    def value(self) -> float:
        return GaugeHandle(self, self._default_key()).value()


class _HistCell:
    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, n_buckets: int):
        # One count per finite edge plus the +Inf overflow bucket.
        self.counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None


class HistogramHandle(_Handle):
    __slots__ = ()

    def observe(self, value: float) -> None:
        metric = self._metric
        value = float(value)
        edges = metric.buckets
        lo, hi = 0, len(edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        with metric._lock:
            cell = metric._cells.get(self._key)
            if cell is None:
                cell = metric._cells[self._key] = _HistCell(len(edges))
            cell.counts[lo] += 1
            cell.sum += value
            cell.count += 1
            if cell.min is None or value < cell.min:
                cell.min = value
            if cell.max is None or value > cell.max:
                cell.max = value

    def quantile(self, fraction: float) -> Optional[float]:
        metric = self._metric
        with metric._lock:
            cell = metric._cells.get(self._key)
            if cell is None or cell.count == 0:
                return None
            counts = list(cell.counts)
            maximum = cell.max
        return sample_quantile(metric.buckets, counts, fraction, maximum)


class Histogram(_Metric):
    """Fixed-bucket distribution with exact sum/count and min/max.

    Buckets are upper bounds in increasing order (``+Inf`` implicit).
    The exact ``sum``/``count`` make means exact; quantiles resolve to
    bucket upper edges via the shared nearest-rank rule.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...],
                 registry: "MetricsRegistry",
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help, labelnames, registry)
        edges = tuple(float(edge) for edge in buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise MetricError(
                f"buckets must be strictly increasing, got {buckets!r}"
            )
        if math.isinf(edges[-1]):
            edges = edges[:-1]
        self.buckets = edges

    def labels(self, **labels: Any) -> HistogramHandle:
        return HistogramHandle(
            self, _validate_labels(self.labelnames, labels))

    def observe(self, value: float) -> None:
        HistogramHandle(self, self._default_key()).observe(value)

    def quantile(self, fraction: float) -> Optional[float]:
        return HistogramHandle(self, self._default_key()).quantile(fraction)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of metrics with atomic snapshot/merge."""

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}

    # -- get-or-create -------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Iterable[str], **kwargs) -> _Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricError(
                        f"{name} already registered as {existing.kind}"
                    )
                if existing.labelnames != labelnames:
                    raise MetricError(
                        f"{name} already registered with labels "
                        f"{existing.labelnames}, not {labelnames}"
                    )
                if kwargs.get("buckets") is not None and tuple(
                        float(b) for b in kwargs["buckets"]
                ) != existing.buckets:
                    raise MetricError(
                        f"{name} already registered with buckets "
                        f"{existing.buckets}"
                    )
                return existing
            metric = cls(name, help, labelnames, self, **{
                k: v for k, v in kwargs.items() if v is not None})
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames,
            buckets=tuple(buckets) if buckets is not None else None)

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """An atomic, JSON-ready copy of every metric's state."""
        with self._lock:
            out: Dict[str, Any] = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entry: Dict[str, Any] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                }
                if metric.kind == "histogram":
                    entry["buckets"] = list(metric.buckets)
                samples = []
                for key in sorted(metric._cells):
                    labels = dict(zip(metric.labelnames, key))
                    cell = metric._cells[key]
                    if metric.kind == "histogram":
                        samples.append({
                            "labels": labels,
                            "counts": list(cell.counts),
                            "sum": cell.sum,
                            "count": cell.count,
                            "min": cell.min,
                            "max": cell.max,
                        })
                    else:
                        samples.append({"labels": labels, "value": cell})
                entry["samples"] = samples
                out[name] = entry
            return out

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` (typically from a child process) in.

        Counters and histogram bucket counts add; gauges take the
        snapshot's value (last write wins); histogram min/max combine.
        Metrics absent here are created with the snapshot's shape.
        """
        for name, entry in snap.items():
            kind = entry.get("kind")
            labelnames = tuple(entry.get("labelnames", ()))
            help_text = entry.get("help", "")
            if kind == "counter":
                metric = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, help_text, labelnames)
            elif kind == "histogram":
                metric = self.histogram(
                    name, help_text, labelnames,
                    buckets=entry.get("buckets"))
            else:
                raise MetricError(
                    f"cannot merge metric {name!r} of kind {kind!r}"
                )
            for sample in entry.get("samples", ()):
                labels = sample.get("labels", {})
                key = _validate_labels(labelnames, labels)
                with self._lock:
                    cells = metric._cells
                    if kind == "counter":
                        cells[key] = cells.get(key, 0.0) + sample["value"]
                    elif kind == "gauge":
                        cells[key] = float(sample["value"])
                    else:
                        counts = sample["counts"]
                        if len(counts) != len(metric.buckets) + 1:
                            raise MetricError(
                                f"{name}: snapshot has {len(counts)} "
                                f"buckets, registry expects "
                                f"{len(metric.buckets) + 1}"
                            )
                        cell = cells.get(key)
                        if cell is None:
                            cell = cells[key] = _HistCell(
                                len(metric.buckets))
                        for i, count in enumerate(counts):
                            cell.counts[i] += count
                        cell.sum += sample["sum"]
                        cell.count += sample["count"]
                        for bound, pick in (("min", min), ("max", max)):
                            theirs = sample.get(bound)
                            if theirs is None:
                                continue
                            ours = getattr(cell, bound)
                            setattr(cell, bound,
                                    theirs if ours is None
                                    else pick(ours, theirs))

    def values(self, name: str) -> Dict[Tuple[str, ...], float]:
        """``{label values: value}`` of one counter or gauge, empty when
        ``name`` is unregistered: a read of one family's cells, far
        cheaper than :meth:`snapshot`."""
        with self._lock:
            metric = self._metrics.get(name)
            return dict(metric._cells) if metric is not None else {}

    def reset(self) -> None:
        """Zero every metric in place; registered metrics survive."""
        with self._lock:
            for metric in self._metrics.values():
                metric._cells.clear()

    # -- exposition ----------------------------------------------------
    def exposition(self) -> str:
        """Render the registry in Prometheus text format (v0.0.4)."""
        return render_exposition(self.snapshot())


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_int = int(value)
    if as_int == value and abs(value) < 1e15:
        return str(as_int)
    return repr(float(value))


def _format_labels(labels: Mapping[str, str],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [(k, str(v)) for k, v in labels.items()] + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def render_exposition(snap: Mapping[str, Any]) -> str:
    """Prometheus text for a :func:`snapshot`-shaped mapping."""
    lines: List[str] = []
    for name in sorted(snap):
        entry = snap[name]
        kind = entry["kind"]
        help_text = entry.get("help") or name
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in entry.get("samples", ()):
            labels = sample.get("labels", {})
            if kind == "histogram":
                edges = list(entry["buckets"]) + [math.inf]
                cumulative = 0
                for edge, count in zip(edges, sample["counts"]):
                    cumulative += count
                    le = "+Inf" if edge == math.inf else _format_value(edge)
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(labels, (('le', le),))} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} "
                    f"{sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def snapshot_delta(before: Mapping[str, Any],
                   after: Mapping[str, Any]) -> Dict[str, Any]:
    """``after - before`` in snapshot shape (mergeable into a parent).

    Counters and histogram buckets subtract; gauges keep ``after``'s
    value; histogram min/max keep ``after``'s (an approximation -- a
    delta window cannot recover its own extrema from totals).  Samples
    that did not change are dropped, so deltas stay small on the wire.
    """
    out: Dict[str, Any] = {}
    for name, entry in after.items():
        prior = before.get(name, {})
        prior_samples = {
            tuple(sorted(s.get("labels", {}).items())): s
            for s in prior.get("samples", ())
        }
        kind = entry["kind"]
        samples = []
        for sample in entry.get("samples", ()):
            key = tuple(sorted(sample.get("labels", {}).items()))
            base = prior_samples.get(key)
            if kind == "counter":
                value = sample["value"] - (
                    base["value"] if base else 0.0)
                if value:
                    samples.append(
                        {"labels": sample["labels"], "value": value})
            elif kind == "gauge":
                if base is None or base["value"] != sample["value"]:
                    samples.append(dict(sample))
            else:
                base_counts = base["counts"] if base else None
                counts = [
                    c - (base_counts[i] if base_counts else 0)
                    for i, c in enumerate(sample["counts"])
                ]
                if any(counts):
                    samples.append({
                        "labels": sample["labels"],
                        "counts": counts,
                        "sum": sample["sum"] - (
                            base["sum"] if base else 0.0),
                        "count": sample["count"] - (
                            base["count"] if base else 0),
                        "min": sample.get("min"),
                        "max": sample.get("max"),
                    })
        if samples:
            slim = {k: v for k, v in entry.items() if k != "samples"}
            slim["samples"] = samples
            out[name] = slim
    return out


#: The process-wide registry.  One object for the process lifetime --
#: reset clears it in place (see module docstring).
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "",
            labelnames: Iterable[str] = ()) -> Counter:
    """Get or create a :class:`Counter` in the process registry."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "",
          labelnames: Iterable[str] = ()) -> Gauge:
    """Get or create a :class:`Gauge` in the process registry."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(name: str, help: str = "",
              labelnames: Iterable[str] = (),
              buckets: Optional[Sequence[float]] = None) -> Histogram:
    """Get or create a :class:`Histogram` in the process registry."""
    return REGISTRY.histogram(name, help, labelnames, buckets)


def snapshot() -> Dict[str, Any]:
    """Atomic snapshot of the process registry (JSON-ready)."""
    return REGISTRY.snapshot()


def merge(snap: Mapping[str, Any]) -> None:
    """Merge a child-process snapshot (or delta) into this registry."""
    REGISTRY.merge(snap)


def reset_metrics() -> None:
    """Zero the process registry in place (tests, pool worker init)."""
    REGISTRY.reset()


def exposition() -> str:
    """The process registry in Prometheus text format."""
    return REGISTRY.exposition()


# ----------------------------------------------------------------------
# Per-run scheduler metrics
# ----------------------------------------------------------------------
_run_handles: Dict[str, Tuple[CounterHandle, CounterHandle, CounterHandle,
                              CounterHandle, CounterHandle,
                              HistogramHandle]] = {}


def record_run(engine: str, rounds: int, messages: int, bits: int,
               broadcasts: int, wall_s: float) -> None:
    """Record one scheduler run's ledger delta (hot path, per engine).

    Handles are memoized per engine so the steady-state cost is a few
    dict updates under one lock round-trip per metric.
    """
    handles = _run_handles.get(engine)
    if handles is None:
        labels = {"engine": engine}
        handles = (
            counter("repro_sim_runs_total",
                    "Scheduler runs completed", ("engine",)).labels(**labels),
            counter("repro_sim_rounds_total",
                    "Synchronous rounds executed", ("engine",)
                    ).labels(**labels),
            counter("repro_sim_messages_total",
                    "Messages delivered", ("engine",)).labels(**labels),
            counter("repro_sim_bits_total",
                    "Message bits transferred", ("engine",)).labels(**labels),
            counter("repro_sim_broadcasts_total",
                    "Broadcast envelopes sent", ("engine",)).labels(**labels),
            histogram("repro_sim_run_seconds",
                      "Wall-clock seconds per scheduler run", ("engine",),
                      buckets=LATENCY_BUCKETS).labels(**labels),
        )
        _run_handles[engine] = handles
    runs, rnds, msgs, bts, bcasts, wall = handles
    runs.inc()
    if rounds:
        rnds.inc(rounds)
    if messages:
        msgs.inc(messages)
    if bits:
        bts.inc(bits)
    if broadcasts:
        bcasts.inc(broadcasts)
    wall.observe(wall_s)


# ----------------------------------------------------------------------
# JSONL flushing
# ----------------------------------------------------------------------
class MetricsFlusher:
    """Periodically append registry snapshots to a JSONL file.

    Each line is ``{"kind": "metrics", "t": <unix seconds>,
    "metrics": <snapshot>}``.  With ``interval_s > 0`` a daemon thread
    flushes on that cadence; a final flush always happens on close, so
    short runs still produce one line.  Usable as a context manager.
    """

    def __init__(self, path: str, interval_s: float = 0.0,
                 registry: Optional[MetricsRegistry] = None):
        self.path = path
        self.interval_s = float(interval_s)
        self.registry = registry if registry is not None else REGISTRY
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._handle: Optional[IO[str]] = None
        self._write_lock = threading.Lock()

    def start(self) -> "MetricsFlusher":
        self._handle = open(self.path, "w", encoding="utf-8")
        if self.interval_s > 0:
            self._thread = threading.Thread(
                target=self._loop, name="metrics-flusher", daemon=True)
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.flush()
            except (OSError, ValueError):  # pragma: no cover - defensive
                return

    def flush(self) -> None:
        """Write one snapshot line now."""
        handle = self._handle
        if handle is None:
            raise RuntimeError("flusher not started")
        line = json.dumps({
            "kind": "metrics",
            "t": time.time(),
            "metrics": self.registry.snapshot(),
        }, sort_keys=True)
        with self._write_lock:
            handle.write(line + "\n")
            handle.flush()

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._handle is not None:
            try:
                self.flush()
            finally:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "MetricsFlusher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_metrics_jsonl(path: str) -> List[Dict[str, Any]]:
    """All ``kind == "metrics"`` lines from a JSONL file, in order.

    Tolerates interleaved trace/manifest lines (the ``--metrics`` flag
    can point at the same stream as a trace) and skips malformed lines.
    """
    out: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("kind") == "metrics":
                out.append(record)
    return out
