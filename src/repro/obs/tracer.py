"""Structured run tracing: spans and events with a logical/physical split.

A :class:`Tracer` collects a flat list of JSON-serializable records
describing one traced run: nested *spans* (a scheduler run, a
``CostLedger.phase`` scope, an algorithm invocation) and point *events*
(the aggregate round batch a scheduler run produced).  The instrumented
layers -- :mod:`repro.sim.scheduler`, :mod:`repro.sim.metrics`, the
Two-Sweep wrappers -- fetch the process-current tracer through
:func:`current_tracer` and do nothing when none is installed, so tracing
is strictly pay-for-what-you-use: a disabled hook is one ``None`` check
per scheduler *run* (never per round or per node), and crucially it
never changes which engine executes the run -- the vectorized engine
keeps its kernels under tracing instead of falling back the way an
attached :class:`~repro.sim.tracing.RoundObserver` forces it to.

Every record field is either **logical** or **physical**:

* logical fields describe *what the protocol did* -- span structure
  (``kind`` / ``name`` / ``span`` / ``parent``), round/message/bit/
  broadcast totals, instance parameters.  The engine-equivalence
  invariant extends to them: the logical view of a trace is
  byte-identical across the reference and vectorized engines
  (see :func:`canonical_lines`).
* physical fields describe *how the hardware ran it* -- wall-clock
  (``t0`` / ``wall_s``), ``pid``, ``engine``, ``kernel``, ``fallback``,
  ``backend``, ``warmup_s``, ``worker``.  They differ run to run and engine to
  engine, and :func:`logical_view` strips them.

Records of a wholly physical *kind* (currently ``kernel`` annotations,
which only the vectorized engine emits) are dropped from the logical
view entirely and never consume a span id, so their presence cannot
shift the ids of the logical records around them.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional

#: Record fields describing physical execution; stripped by
#: :func:`logical_view` so traces can be compared across engines.
PHYSICAL_FIELDS = frozenset({
    "t0", "wall_s", "pid", "engine", "kernel", "fallback", "backend",
    "warmup_s", "worker", "rss_kb",
})

#: Record kinds that are wholly physical: engine-dependent annotations
#: dropped from the logical view as complete records.
PHYSICAL_KINDS = frozenset({"kernel"})

#: Record kinds that open a span (consume a span id, carry timing).
SPAN_KINDS = frozenset({"run", "phase", "algorithm"})

#: Point-event kinds (no span id of their own, nested under ``parent``).
EVENT_KINDS = frozenset({"round-batch"})


class Span:
    """Handle yielded by :meth:`Tracer.span` to attach late attributes.

    Attributes set on :attr:`attrs` inside the ``with`` block land on the
    span's record when the scope closes -- the natural place for totals
    that are only known at the end (ledger deltas, outcome flags).
    """

    __slots__ = ("id", "attrs")

    def __init__(self, span_id: int):
        self.id = span_id
        self.attrs: Dict[str, Any] = {}


class Tracer:
    """Collects span/event records for one traced run.

    Not thread-safe (the simulator is single-threaded per process);
    process-pool workers each build their own tracer and the parent
    merges the shipped records with :meth:`merge`.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, kind: str, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; the record is appended when it closes.

        Records therefore appear in *completion* order (children before
        parents), which is deterministic and engine-independent; the
        ``span``/``parent`` ids reconstruct the tree.  The span's record
        survives exceptions raised inside the scope.
        """
        self._seq += 1
        handle = Span(self._seq)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(handle.id)
        t0 = time.perf_counter()
        try:
            yield handle
        finally:
            self._stack.pop()
            record: Dict[str, Any] = {
                "kind": kind,
                "name": name,
                "span": handle.id,
                "parent": parent,
            }
            record.update(attrs)
            record.update(handle.attrs)
            record["t0"] = t0
            record["wall_s"] = time.perf_counter() - t0
            self.events.append(record)

    def event(self, kind: str, name: str, **attrs: Any) -> Dict[str, Any]:
        """Append a point event nested under the current span.

        Point events carry no span id of their own, so interleaving them
        with spans never perturbs the id sequence.
        """
        record: Dict[str, Any] = {
            "kind": kind,
            "name": name,
            "parent": self._stack[-1] if self._stack else 0,
        }
        record.update(attrs)
        self.events.append(record)
        return record

    def annotate(self, name: str, **attrs: Any) -> Dict[str, Any]:
        """Append a wholly physical ``kernel``-kind annotation.

        These records document engine internals (which kernel ran, how
        long its warmup took, why a run fell back) and are invisible to
        the logical view.
        """
        record: Dict[str, Any] = {
            "kind": "kernel",
            "name": name,
            "parent": self._stack[-1] if self._stack else 0,
        }
        record.update(attrs)
        self.events.append(record)
        return record

    # ------------------------------------------------------------------
    # Merging (process-pool workers)
    # ------------------------------------------------------------------
    def merge(self, events: Iterable[Dict[str, Any]],
              **extra: Any) -> List[Dict[str, Any]]:
        """Fold another tracer's records into this one.

        Span/parent ids are rebased past this tracer's counter so they
        stay unique; root records are re-parented under the currently
        open span (if any); ``extra`` attributes -- typically
        ``worker=<pid>`` -- are stamped on every merged record.  Returns
        the merged (rebased) records.
        """
        base = self._seq
        top = self._stack[-1] if self._stack else 0
        highest = 0
        merged: List[Dict[str, Any]] = []
        for original in events:
            record = dict(original)
            span_id = record.get("span")
            if span_id:
                record["span"] = span_id + base
                if span_id > highest:
                    highest = span_id
            parent = record.get("parent", 0)
            record["parent"] = parent + base if parent else top
            record.update(extra)
            self.events.append(record)
            merged.append(record)
        self._seq = base + highest
        return merged


# ----------------------------------------------------------------------
# Logical view: the engine-invariant projection of a trace
# ----------------------------------------------------------------------
def logical_view(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Strip physical fields (and wholly physical records) from a trace.

    What remains is the protocol's logical story -- and by the engine
    contract it is identical whichever engine executed the run.
    """
    view = []
    for record in events:
        if record.get("kind") in PHYSICAL_KINDS:
            continue
        view.append({
            key: value for key, value in record.items()
            if key not in PHYSICAL_FIELDS
        })
    return view


def canonical_lines(events: Iterable[Dict[str, Any]]) -> str:
    """The logical view as sorted-key JSON lines: the byte-comparable
    form the equivalence suite and the CI trace diff both use."""
    import json

    return "\n".join(
        json.dumps(record, sort_keys=True, default=repr)
        for record in logical_view(events)
    )


# ----------------------------------------------------------------------
# The process-current tracer
# ----------------------------------------------------------------------
_tracer: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (tracing disabled)."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the scope of the ``with`` block.

    ``None`` installs a fresh :class:`Tracer`.  On exit the previous
    tracer (including "none installed") is restored exactly.
    """
    active = tracer if tracer is not None else Tracer()
    saved = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(saved)


def tracing_pid() -> int:
    """This process's pid (exporters stamp it on physical records)."""
    return os.getpid()
