"""Request execution: the one code path behind every daemon response.

:func:`execute_request` turns a validated request spec (see
:mod:`repro.serve.schema`) into a plain-dict payload -- coloring result,
cost ledger, logical trace events, timing, and a lightweight per-request
manifest.  The daemon's worker pool calls it through
:func:`execute_batch_metrics`; tests and the benchmark call it directly
in the serving process as the *serial reference*, and the acceptance
contract is that both paths produce byte-identical logical streams
(compare ``canonical_lines`` of the returned trace) and identical
ledgers.

Design constraints that shape this module:

* everything returned must be picklable **and** JSON-serializable plain
  data -- payloads cross a process pool and then an HTTP socket;
* algorithm failures are *results*, not crashes: an infeasible instance
  or a stuck node yields ``status: "error"`` with the exception's type
  and message, and the worker process stays healthy for the next request;
* the per-request manifest is deliberately cheap.  The full
  :func:`repro.obs.manifest.collect_manifest` shells out to ``git`` --
  fine once per benchmark, absurd per request -- so requests carry only
  the fields that vary per execution (engine, pid, cache/kernel counter
  deltas, wall times); the daemon writes one full manifest at boot.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..sim.errors import SimulationError
from ..sim.metrics import CostLedger
from .schema import (
    RequestError,
    require_list_entries,
    require_sweep_rounds,
    topology_key,
)

#: Result payloads above this node count drop the full color mapping
#: unless the request explicitly asks for it (``include_colors``).
_COLORS_INLINE_LIMIT = 4096


def counters_delta(before: Dict[str, Dict[str, int]],
                   after: Dict[str, Dict[str, int]]
                   ) -> Dict[str, Dict[str, int]]:
    """Per-registry ``{hits, misses}`` deltas between two snapshots."""
    delta: Dict[str, Dict[str, int]] = {}
    for name, counts in after.items():
        base = before.get(name, {})
        hits = counts.get("hits", 0) - base.get("hits", 0)
        misses = counts.get("misses", 0) - base.get("misses", 0)
        if hits or misses:
            delta[name] = {"hits": hits, "misses": misses}
    return delta


def _kernel_delta(before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, int]:
    delta = {}
    for field in ("runs", "fallbacks"):
        moved = after.get(field, 0) - before.get(field, 0)
        if moved:
            delta[field] = moved
    return delta


def resolve_topology(topology: Dict[str, Any]) -> Tuple[Hashable, Any]:
    """Build (or fetch warm) the compiled network for a topology spec.

    Returns ``(key, compiled)``.  Every kind resolves to a
    :class:`~repro.sim.compiled.CompiledNetwork`: streamed families via
    their shm-aware builders, seeded ``gnp`` via
    :func:`~repro.graphs.streaming.gnp_compiled` (the CSR of
    ``gnp_graph(...).compile()``), inline ``edges`` via a CSR build
    after an shm lookup, and ``graph`` handles strictly via shm (the
    daemon publishes uploads there).
    """
    from ..graphs.streaming import (
        csr_from_edges,
        gnp_compiled,
        stream_gnp,
        stream_grid,
        stream_regular,
        stream_ring,
        stream_tree,
    )

    kind = topology["kind"]
    key = topology_key(topology)
    if kind == "ring-stream":
        return key, stream_ring(topology["n"])
    if kind == "grid-stream":
        return key, stream_grid(topology["rows"], topology["cols"])
    if kind == "tree-stream":
        return key, stream_tree(topology["depth"])
    if kind == "gnp-stream":
        return key, stream_gnp(topology["n"], topology["p"],
                               topology["seed"])
    if kind == "regular-stream":
        return key, stream_regular(topology["n"], topology["degree"],
                                   topology["seed"])
    if kind == "gnp":
        return key, gnp_compiled(topology["n"], topology["density"],
                                 topology["seed"])
    if kind == "edges":
        from ..sim import shm
        from ..sim.compiled import CompiledNetwork
        from ..substrates.cache import record_lookup

        shared = shm.lookup(key)
        record_lookup("topologies", shared is not None)
        if shared is not None:
            return key, shared
        edges = [tuple(pair) for pair in topology["edges"]]
        indptr, indices = csr_from_edges(topology["n"], edges)
        return key, CompiledNetwork.from_csr(indptr, indices)
    # kind == "graph": strictly a warm handle -- the daemon rewrites
    # uploads to inline edges when shared memory is unavailable.
    from ..sim import shm
    from ..substrates.cache import record_lookup

    shared = shm.lookup(key)
    record_lookup("topologies", shared is not None)
    if shared is None:
        raise RequestError(
            f"unknown graph handle {topology['id']!r} "
            "(upload it via POST /graphs first)"
        )
    return key, shared


def _describe(kind: str, compiled: Any) -> Dict[str, Any]:
    return {
        "kind": kind,
        "n": compiled.n,
        "m": compiled.m,
        "max_degree": compiled.raw_max_degree(),
    }


def _colors_payload(compiled: Any, column: Sequence[Any],
                    include_colors: bool) -> Dict[str, Any]:
    """Summarize a dense-id coloring: class count, checksum, optional map.

    ``column`` holds the colors in ``compiled.order``; the checksum is
    :func:`colors_blake2b`.  Only the inline map (``include_colors``, at
    most ``_COLORS_INLINE_LIMIT`` nodes) builds a ``{node: color}`` dict.
    """
    from ..sim.arrays import as_list

    payload: Dict[str, Any] = {
        "color_count": _color_count(column),
        "colors_blake2b": colors_blake2b(compiled.order, column),
    }
    if include_colors and compiled.n <= _COLORS_INLINE_LIMIT:
        payload["colors"] = dict(zip(map(str, compiled.order),
                                     as_list(column)))
    return payload


def colors_blake2b(order: Sequence[Any], column: Sequence[Any]) -> str:
    """The checksum of a coloring, ``column[i]`` the color of node
    ``order[i]``: a 16-byte blake2b over ``f"{node!r}={color}:"`` for
    every node, nodes in ``repr``-sorted order.

    Two runs can so be compared for bit-identical colorings without
    shipping (or even keeping) million-entry mappings; ``repro scale``
    and every daemon result report it.  For ``range(n)`` nodes and
    non-negative int colors NumPy writes the bytes
    (:func:`_digest_bytes`) and they are hashed in one ``update``;
    otherwise node by node.
    """
    import hashlib

    from ..sim.arrays import get_numpy, int64_column

    hasher = hashlib.blake2b(digest_size=16)
    np = get_numpy()
    values = (int64_column(np, column)
              if np is not None and order == range(len(order)) else None)
    if values is not None and values.shape[0] and int(values.min()) >= 0:
        with _DIGEST_LOCK:
            hasher.update(_digest_bytes(np, values))
    else:
        for i in sorted(range(len(order)), key=lambda i: repr(order[i])):
            hasher.update(f"{order[i]!r}={column[i]}:".encode())
    return hasher.hexdigest()


#: Byte bound on the checksum layouts (:func:`_digest_layout`) one
#: process keeps: 250,000 nodes with one-digit colors take 3.0 MiB of
#: it.  A layout above the bound serves its one checksum and is dropped.
_DIGEST_STORE_BYTES = 7 << 19

#: ``(n, color width) -> (template, cells)``, least recently used first.
_digest_store: "OrderedDict[Tuple[int, int], Tuple[Any, Any]]" = \
    OrderedDict()

#: Held while a checksum looks up a layout and writes its digits into
#: the shared template: a thread-mode pool checksums in one process.
_DIGEST_LOCK = threading.Lock()


def _digest_bytes(np: Any, values: Any) -> Any:
    """The checksum bytes ``f"{i}={values[i]}:"`` of a ``range(n)``
    coloring of non-negative ints, ``i`` in ``repr``-sorted order, as a
    uint8 array.

    The colors' digits are written right-aligned into the stored layout
    for ``(n, width of the largest color)``, one scatter per digit
    column, all quotients in one buffer of the narrowest type holding
    the colors.  When some color is narrower, a keep mask drops its
    leading zeros (a lone ``0`` stays) in one compaction.  The result
    may be the stored template itself: hash it under
    :data:`_DIGEST_LOCK`.
    """
    n = values.shape[0]
    high = int(values.max())
    width = len(str(high))
    key = (n, width)
    template, cells = _digest_store.pop(key, None) or \
        _digest_layout(np, n, width)
    size = template.nbytes + cells.nbytes
    if size <= _DIGEST_STORE_BYTES:
        held = size + sum(a.nbytes + b.nbytes
                          for a, b in _digest_store.values())
        while held > _DIGEST_STORE_BYTES:
            old, old_cells = _digest_store.popitem(last=False)[1]
            held -= old.nbytes + old_cells.nbytes
        _digest_store[key] = template, cells
    keep = positive = None
    if len(str(int(values.min()))) < width:
        keep = np.ones(template.shape[0], dtype=bool)
        positive = np.empty(n, dtype=bool)
    digit = np.empty(n, dtype=np.uint8)
    rest = values
    for k in range(width - 1, -1, -1):
        if keep is not None and k < width - 1:
            # A cell left of the units cell holds a leading zero exactly
            # when the quotient reaching it is 0.
            np.greater(rest, 0, out=positive)
            keep[k:][cells] = positive
        if k:
            np.remainder(rest, 10, out=digit, casting="unsafe")
            digit += ord("0")
            # The caller's column is read, never written.
            rest = np.floor_divide(rest, 10, casting="unsafe", out=(
                np.empty(n, dtype=np.min_scalar_type(high))
                if rest is values else rest))
        else:  # the leftmost cell: rest < 10
            np.add(rest, ord("0"), out=digit, casting="unsafe")
        template[k:][cells] = digit
    del rest, positive  # freed before the compaction copy
    return template if keep is None else template[keep]


def _digest_layout(np: Any, n: int, width: int) -> Tuple[Any, Any]:
    """The checksum bytes of a ``range(n)`` coloring whose colors have
    ``width`` digits, less the colors: ``(template, cells)``.

    ``template`` (uint8) is ``f"{i}={'?' * width}:"`` for every ``i`` in
    ``repr``-sorted order, its color cells left unwritten; ``cells[i]``
    (int32 below 2**31 bytes) is the offset of node ``i``'s first color
    cell.  Each id-length group ``[10**(d-1), 10**d)`` is a slice of
    ids, so its cells are written group by group.
    """
    order = _repr_order(np, n)
    bounds = [0] + [10 ** d for d in range(1, len(str(n - 1)))] + [n]
    ranked = np.empty(n, dtype=np.int64)
    for digits in range(1, len(bounds)):
        ranked[bounds[digits - 1]:bounds[digits]] = digits + width + 2
    # Cell lengths in repr order, summed to each cell's end.
    ranked = np.cumsum(ranked[order], out=ranked)
    total = int(ranked[-1])
    ranked -= width + 1
    cells = np.empty(n, dtype=np.int32 if total < 1 << 31 else np.int64)
    cells[order] = ranked
    del order, ranked
    template = np.empty(total, dtype=np.uint8)
    template[width:][cells] = ord(":")
    for digits in range(1, len(bounds)):
        lo, hi = bounds[digits - 1], bounds[digits]
        at = cells[lo:hi] - 1
        template[at] = ord("=")
        rest = np.arange(lo, hi, dtype=cells.dtype)
        for _ in range(digits):
            at -= 1
            template[at] = rest % 10 + ord("0")
            rest //= 10
    return template, cells


def _repr_order(np: Any, n: int) -> Any:
    """``range(n)`` in ``repr``-sorted order, as int64 ids.

    The ``repr`` order of ``0..n-1`` is numeric once every id is
    left-aligned to the width of ``n - 1`` (zeros appended), a prefix
    sorting before its extensions (shorter first).
    """
    ids = np.arange(n, dtype=np.int64)
    lengths = np.ones(n, dtype=np.int64)
    bound = 10
    while bound < n:
        lengths += ids >= bound
        bound *= 10
    width = int(lengths[-1])
    powers = np.array([10 ** k for k in range(width)], dtype=np.int64)
    keys = powers[width - lengths]
    keys *= ids
    keys *= width + 1
    keys += lengths
    # The keys are distinct, so any sort gives this order; the stable
    # one is faster on these presorted runs and is the sort the kernels
    # already use, so a worker maps no further NumPy code for it.
    return np.argsort(keys, kind="stable")


def _color_count(column: Sequence[Any]) -> int:
    """Distinct colors in a dense-id column.

    A bincount for the reduction's small non-negative colors: the
    default ``np.unique`` takes NumPy's hash-based path, whose code and
    table raised a serving worker's peak RSS by about 1.5 MiB.
    """
    from ..sim.arrays import get_numpy

    np = get_numpy()
    if np is not None and isinstance(column, np.ndarray):
        n = column.shape[0]
        if not n:
            return 0
        if 0 <= int(column.min()) and int(column.max()) <= 2 * n:
            return int(np.count_nonzero(np.bincount(column)))
        return int(np.unique(column).shape[0])
    return len(set(column))


def _run_greedy_reduction(compiled: Any, params: Dict[str, Any],
                          ledger: CostLedger
                          ) -> Tuple[Dict[str, Any], Sequence[int]]:
    """The ``repro scale`` workload: inflated palette down to Delta+1.

    The one seed -> reduce -> validate path behind both ``repro
    scale`` and the daemon's ``greedy-reduction``.  Returns ``(payload,
    column)``: ``payload`` holds ``q``/``target``, plus ``valid`` -- and
    ``invalid_reason`` when false -- if ``params["validate"]`` is set;
    ``column`` holds the colors in dense-id order (an int64 ndarray on
    the NumPy path; no ``{node: color}`` dict is built).
    """
    from ..graphs.streaming import inflated_seed_coloring
    from ..substrates.greedy import greedy_color_reduction

    delta = compiled.raw_max_degree()
    target = delta + 1
    # Floor the palette at 2 * target: the inflated palette then always
    # strictly exceeds the target, so the reduction performs real rounds
    # on every family instead of degenerating to a no-op on dense ones.
    seed, q = inflated_seed_coloring(compiled,
                                     max(params["colors"], 2 * target))
    column = greedy_color_reduction(compiled, seed, q, target,
                                    ledger=ledger)
    payload: Dict[str, Any] = {"q": q, "target": target}
    if params["validate"]:
        reason = _coloring_violation(compiled, column, target)
        payload["valid"] = reason is None
        if reason is not None:
            payload["invalid_reason"] = reason
    return payload, column


#: CSR entries one NumPy validation chunk gathers: bounds its
#: temporaries (two color gathers and a mask; on a clash, source ids and
#: two masks) to about 1.7 MiB, and is no slower than larger chunks.
_VALIDATE_CHUNK = 1 << 16


def _coloring_violation(compiled: Any, column: Sequence[Any],
                        target: int) -> Optional[str]:
    """How the dense-id ``column`` fails as a proper coloring below
    ``target``, or ``None``.

    Every edge is checked in :meth:`CompiledNetwork.edge_ids` order
    (the first monochromatic one is reported), then the ``< target``
    bound -- with NumPy over CSR chunks when the array backend is on
    and the colors are plain ints (or an int64 ndarray), in a plain
    loop otherwise.
    """
    n = compiled.n
    views = compiled.numpy_views()
    if views is not None and n:
        from ..sim.arrays import get_numpy, int64_column

        np = get_numpy()
        values = int64_column(np, column)
        if values is not None:
            indptr, indices, degrees = views
            high = int(values.max())
            # The narrowest int type holding every color: cheaper gathers.
            values = values.astype(np.result_type(
                np.min_scalar_type(int(values.min())),
                np.min_scalar_type(high)))
            lo = 0
            while lo < n:
                hi = int(np.searchsorted(indptr, indptr[lo] + _VALIDATE_CHUNK,
                                         "right")) - 1
                hi = min(max(hi, lo + 1), n)
                row = indices[indptr[lo]:indptr[hi]]
                # Both directions of every edge (a CSR has no self-loops):
                # the first chunk with a clash holds the first in edge_ids
                # order.
                same = np.repeat(values[lo:hi], degrees[lo:hi]) == values[row]
                if same.any():
                    source = np.repeat(np.arange(lo, hi), degrees[lo:hi])
                    k = np.flatnonzero(same & (source < row))[0]
                    return (f"edge ({int(source[k])}, {int(row[k])}) "
                            f"is monochromatic")
                lo = hi
            if high >= target:
                return f"color >= target {target}"
            return None
    indptr = compiled.indptr
    indices = compiled.indices
    for i in range(n):
        color = column[i]
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if i < j and column[j] == color:
                return f"edge ({i}, {int(j)}) is monochromatic"
    if len(column) and max(column) >= target:
        return f"color >= target {target}"
    return None


def _run_sweep(compiled: Any, params: Dict[str, Any],
               ledger: CostLedger, fast: bool
               ) -> Tuple[Dict[str, Any], List[int]]:
    """Algorithm 1 / 2 on a seeded OLDC instance over the topology.

    Returns ``(payload, column)`` like :func:`_run_greedy_reduction`.
    """
    from ..coloring.random_instances import random_oldc_instance
    from ..coloring.validate import check_oldc
    from ..core.fast_two_sweep import fast_two_sweep
    from ..core.two_sweep import two_sweep
    from ..graphs.identifiers import random_ids, sequential_ids
    from ..graphs.oriented import orient_by_id

    # Uploaded graphs: n is known only now (parse_request checks the
    # topologies that state it).
    require_list_entries(compiled.n, params["p"])
    if not params["id_bits"]:
        require_sweep_rounds(compiled.n,
                             f"q = n = {compiled.n} (no id_bits)", params)
    graph = orient_by_id(compiled)
    if params["lists"] == "stuck":
        # A deliberately infeasible instance: every node holds the single
        # color 0 with zero allowed defect, so any edge wedges the sweep.
        # Exercises AlgorithmFailure isolation without randomness.
        from ..coloring.instance import OLDCInstance

        instance = OLDCInstance(
            graph,
            {node: (0,) for node in graph.nodes},
            {node: {0: 0} for node in graph.nodes},
        )
    else:
        epsilon = params.get("epsilon", 0.0) if fast else 0.0
        instance = random_oldc_instance(
            graph, p=params["p"], seed=params["seed"], epsilon=epsilon,
        )
    if params["id_bits"]:
        q = 1 << params["id_bits"]
        if q < compiled.n:
            raise RequestError(
                f"id_bits={params['id_bits']} gives only {q} ids "
                f"for {compiled.n} nodes"
            )
        ids = random_ids(compiled, params["seed"], bits=params["id_bits"])
    else:
        q = compiled.n
        ids = sequential_ids(compiled)
    check = params["check"] and params["lists"] != "stuck"
    if fast:
        result = fast_two_sweep(instance, ids, q, params["p"],
                                params["epsilon"], ledger=ledger,
                                check=check)
    else:
        result = two_sweep(instance, ids, q, params["p"],
                           ledger=ledger, check=check)
    violations = check_oldc(instance, result.colors)
    payload = {
        "q": q,
        "p": params["p"],
        "valid": not violations,
        "stats": {k: v for k, v in result.stats.items()
                  if isinstance(v, (int, float, str, bool))},
    }
    return payload, [result.colors[node] for node in compiled.order]


def execute_request(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one validated request spec to a plain-dict payload.

    Never raises for algorithm- or instance-level failures; those come
    back as ``{"status": "error", "error": {...}}`` payloads so a worker
    process survives any request it is handed.  Only truly unexpected
    exceptions (bugs) propagate.  ``timing`` is physical only: wall
    seconds per stage and ``minor_faults``, the process's ``ru_minflt``
    delta over the request (process-wide, so in a thread-mode pool it
    includes what other threads faulted meanwhile).
    """
    from ..obs.manifest import minor_faults, peak_rss_kb
    from ..obs.tracer import Tracer, logical_view, use_tracer
    from ..sim.kernels import kernel_stats
    from ..sim.scheduler import default_engine
    from ..substrates.cache import cache_counters

    algorithm = spec["algorithm"]
    topology = spec["topology"]
    counters_before = cache_counters()
    kernels_before = kernel_stats()
    faults_before = minor_faults()
    started = time.perf_counter()
    ledger = CostLedger()
    tracer: Optional[Tracer] = Tracer() if spec.get("trace", True) else None
    payload: Dict[str, Any] = {
        "algorithm": algorithm["name"],
        "topology": dict(topology),
    }
    payload["topology"].pop("edges", None)  # never echo bulk data back
    try:
        build_start = time.perf_counter()
        key, compiled = resolve_topology(topology)
        build_s = time.perf_counter() - build_start
        payload["topology"] = _describe(topology["kind"], compiled)
        payload["topology"]["key"] = list(map(str, key)) \
            if isinstance(key, tuple) else str(key)
        solve_start = time.perf_counter()
        scope = use_tracer(tracer) if tracer is not None else None
        try:
            if scope is not None:
                scope.__enter__()
            if algorithm["name"] == "greedy-reduction":
                result, column = _run_greedy_reduction(
                    compiled, algorithm, ledger
                )
            else:
                result, column = _run_sweep(
                    compiled, algorithm, ledger,
                    fast=algorithm["name"] == "fast-two-sweep",
                )
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
        solve_s = time.perf_counter() - solve_start
        result.update(_colors_payload(compiled, column,
                                      spec.get("include_colors", False)))
        payload["status"] = "ok"
        payload["result"] = result
        payload["timing"] = {"build_s": build_s, "solve_s": solve_s}
        payload["nodes_per_s"] = (round(compiled.n / solve_s)
                                  if solve_s > 0 else None)
    except (SimulationError, RequestError) as exc:
        payload["status"] = "error"
        payload["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        payload["timing"] = {}
    payload["ledger"] = ledger.to_dict()
    payload["trace"] = logical_view(tracer.events) if tracer else None
    payload["timing"]["total_s"] = time.perf_counter() - started
    if faults_before is not None:
        payload["timing"]["minor_faults"] = minor_faults() - faults_before
    payload["peak_rss_kb"] = peak_rss_kb()
    payload["manifest"] = {
        "engine": default_engine(),
        "pid": os.getpid(),
        "cache_counters": counters_delta(counters_before,
                                         cache_counters()),
        "kernels": _kernel_delta(kernels_before, kernel_stats()),
    }
    return payload


def execute_batch_metrics(spec: Dict[str, Any],
                          handles: Optional[Dict[Hashable, Any]] = None
                          ) -> Dict[str, Any]:
    """The daemon's pool-worker entry: one request plus its
    metrics-registry delta.

    ``handles`` carries the shm handle of the request's own topology
    when the parent published it; receiving it is idempotent and cheap,
    and it is how topologies published *after* the pool booted reach
    already-spawned workers.  The worker ships back
    ``{"payload", "pid", "metrics"}`` so the serving process can fold
    the worker's counters (kernel hits, cache lookups, per-run ledger
    totals) into its own registry.  A *delta*, not a cumulative
    snapshot, so repeated requests on a long-lived worker stay additive;
    stamped with the pid so a thread-mode pool (same process, updates
    already landed) is merged zero times, not twice.
    """
    from ..obs import metrics as obs_metrics

    if handles:
        from ..sim import shm

        shm.receive_handles(handles)
    before = obs_metrics.snapshot()
    payload = execute_request(spec)
    return {
        "payload": payload,
        "pid": os.getpid(),
        "metrics": obs_metrics.snapshot_delta(before,
                                              obs_metrics.snapshot()),
    }
