"""Spans, timing shims, percentiles and failure accounting.

Every layer is measured from *outside* the program.  A traced pass
installs a shim on each public entry point listed in :data:`SHIMMED`
(plus the kernel registered through ``sim.kernels.kernel_for``), so each
call records one span: name, start, end, parent span and the id of the
request or trial it belongs to.  Nothing under ``src/`` is edited; with
no recorder installed the benchmark makes exactly the same calls.

Spans stay in memory (a :class:`Recorder` per process; pool workers send
theirs back with each trial record) and are written out once, at the
end of a run.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Public entry points that get a timing shim in traced runs, by module.
#: A shim replaces every binding of the function in loaded ``repro``
#: modules, so callers that imported the name directly are covered too.
#: The executor's phase functions split a request into topology build,
#: solve (whose self time is the validation loop) and checksum.
SHIMMED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.serve.executor", (
        "resolve_topology", "_run_greedy_reduction", "_run_sweep",
        "_colors_payload",
    )),
    ("repro.graphs.streaming", (
        "stream_ring", "stream_grid", "stream_tree", "stream_gnp",
        "stream_regular", "csr_from_edges", "inflated_seed_coloring",
    )),
    ("repro.substrates.greedy", ("greedy_color_reduction",)),
    ("repro.sim.scheduler", ("run_protocol",)),
    ("repro.graphs.oriented", ("orient_by_id",)),
    ("repro.coloring.random_instances", ("random_oldc_instance",)),
    ("repro.core.two_sweep", ("two_sweep",)),
    ("repro.core.fast_two_sweep", ("fast_two_sweep",)),
    ("repro.coloring.validate", ("check_oldc",)),
)

#: Span record layout: ``[id, parent id or None, name, start, end, op]``.
Span = List[Any]


class Recorder:
    """In-memory span store for one process and one pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None,
                           self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def adopt(self, spans: Sequence[Span]) -> None:
        """Append spans recorded by another process, re-numbering ids.

        Their clocks are not comparable with ours; only durations and
        the parent structure are used downstream.
        """
        offset = len(self.spans)
        for sid, parent, name, start, end, op in spans:
            self.spans.append([
                sid + offset, None if parent is None else parent + offset,
                name, start, end, op,
            ])


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Overlapping children are counted once, and children reaching past
    their parent are clipped to it.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end, _op in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span[2], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[4] - span[3]
        entry["self_s"] += own[span[0]]
    return out


def by_op(spans: Sequence[Span]) -> Dict[Any, List[Span]]:
    """Group spans by request or trial id.

    Each group is re-numbered into a self-contained tree; its first span
    (the op's root, recorded first) gets id 0.
    """
    groups: Dict[Any, List[Span]] = {}
    for span in spans:
        groups.setdefault(span[5], []).append(span)
    trees = {}
    for op, group in groups.items():
        local = {span[0]: i for i, span in enumerate(group)}
        trees[op] = [[local[s[0]], local.get(s[1]), s[2], s[3], s[4], s[5]]
                     for s in group]
    return trees


def child_coverage(spans: Sequence[Span], root: int) -> float:
    """Share of span ``root`` covered by its direct children."""
    _sid, _parent, _name, start, end, _op = spans[root]
    kids = [(s[3], s[4]) for s in spans if s[1] == root]
    return covered(kids, start, end) / (end - start) if end > start else 0.0


def layer_row(tree: Sequence[Span]) -> Dict[str, float]:
    """The span-derived per-layer metrics of one request or trial.

    ``tree`` is one group from :func:`by_op`, rooted at span 0.
    """
    stats = summarize(tree)

    def total(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0)

    names = {span[0]: span[2] for span in tree}
    fast = "core.fast_two_sweep.fast_two_sweep"
    return {
        "streaming.build_s": sum(
            entry["total_s"] for name, entry in stats.items()
            if name.startswith("graphs.streaming.stream_")),
        "streaming.seed_s": total("graphs.streaming.inflated_seed_coloring"),
        "greedy.programs_s": own("substrates.greedy.greedy_color_reduction"),
        "scheduler.self_s": own("sim.scheduler.run_protocol"),
        "kernels.prepare_s": total("sim.kernels.prepare"),
        "kernels.step_s": total("sim.kernels.step"),
        "kernels.finalize_s": total("sim.kernels.finalize"),
        "kernels.steps": stats.get("sim.kernels.step", {}).get("calls", 0),
        "executor.solve_self_s": own("serve.executor._run_greedy_reduction")
        + own("serve.executor._run_sweep"),
        "oriented.orient_s": total("graphs.oriented.orient_by_id"),
        "instances.build_s": total(
            "coloring.random_instances.random_oldc_instance"),
        # Fast-Two-Sweep runs Two-Sweep inside; count only direct calls.
        "two_sweep.solve_s": sum(
            s[4] - s[3] for s in tree
            if s[2] == "core.two_sweep.two_sweep" and names.get(s[1]) != fast),
        "fast_two_sweep.solve_s": total(fast),
        "validate.check_s": total("coloring.validate.check_oldc"),
        "trace.coverage": child_coverage(tree, 0),
    }


def median_rows(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per key, the median over rows (one row per request or trial)."""
    return {name: median([row[name] for row in rows]) for name in rows[0]} \
        if rows else {}


# ----------------------------------------------------------------------
# Timing shims
# ----------------------------------------------------------------------
# Module-level by necessity: a shim is reached through the patched module
# attribute, not through an object the caller holds.
_active: Optional[Recorder] = None
_patched: List[Tuple[Any, str, Any]] = []


def _timed(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        recorder = _active
        if recorder is None:
            return fn(*args, **kwargs)
        sid = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(sid)

    return shim


def _timed_kernel(factory: Callable[[], Any]) -> Any:
    """Build the registered kernel, timing its three phases per call.

    The methods are overridden on the instance, so the kernel's class --
    and the kernel name the scheduler records -- stays unchanged.
    """
    kernel = factory()
    for method in ("prepare", "step", "finalize"):
        setattr(kernel, method,
                _timed(f"sim.kernels.{method}", getattr(kernel, method)))
    return kernel


def _kernel_for_shim(original: Callable[[type], Any]) -> Callable[[type], Any]:
    @functools.wraps(original)
    def kernel_for(program_class: type) -> Any:
        factory = original(program_class)
        if factory is None or _active is None:
            return factory
        return functools.partial(_timed_kernel, factory)

    return kernel_for


def install(recorder: Recorder) -> None:
    """Shim every entry point in :data:`SHIMMED` and route spans to
    ``recorder``; :func:`uninstall` restores the originals."""
    global _active
    if _patched:
        raise RuntimeError("timing shims are already installed")
    importlib.import_module("repro")
    replacements: Dict[int, Tuple[Any, Any]] = {}
    for module_name, names in SHIMMED:
        module = importlib.import_module(module_name)
        layer = module_name[len("repro."):]
        for name in names:
            original = getattr(module, name)
            replacements[id(original)] = (
                original, _timed(f"{layer}.{name}", original),
            )
    kernels = importlib.import_module("repro.sim.kernels")
    replacements[id(kernels.kernel_for)] = (
        kernels.kernel_for, _kernel_for_shim(kernels.kernel_for),
    )
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                _patched.append((module, attr, value))
    _active = recorder


def uninstall() -> None:
    global _active
    _active = None
    while _patched:
        module, attr, original = _patched.pop()
        setattr(module, attr, original)


@contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Upper nearest-rank percentile (the convention ``repro.obs`` uses)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(values: Sequence[float],
                         fraction: float) -> Optional[float]:
    """The percentile, or ``None`` with fewer than :data:`MIN_BEYOND`
    samples beyond its rank."""
    if not values:
        return None
    rank = max(1, math.ceil(fraction * len(values)))
    if len(values) - rank < MIN_BEYOND:
        return None
    return percentile(values, fraction)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed operations of one run.

    A wrong output counts exactly like an error response: the operation
    is attempted, it failed, and the run is not correct.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def payload_mismatches(got: Dict[str, Any],
                       want: Dict[str, Any]) -> List[str]:
    """How an executor payload differs from the reference payload.

    Compares what the engine contract pins: status, validity, the color
    checksum, the cost ledger and the canonical logical trace.
    """
    from repro.obs.tracer import canonical_lines

    problems = []
    if got.get("status") != "ok":
        problems.append(f"status {got.get('status')!r}")
    got_result = got.get("result") or {}
    want_result = want.get("result") or {}
    if got_result.get("valid") is False:
        problems.append("invalid coloring")
    if got_result.get("colors_blake2b") != want_result.get("colors_blake2b"):
        problems.append("colors_blake2b differs")
    if got.get("ledger") != want.get("ledger"):
        problems.append("ledger differs")
    if canonical_lines(got.get("trace") or []) != \
            canonical_lines(want.get("trace") or []):
        problems.append("logical trace differs")
    return problems
