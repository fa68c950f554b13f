"""Streaming topology builders: edges straight into CSR buffers.

The materialized generators in :mod:`repro.graphs.generators` build a
:class:`~repro.sim.network.Network` -- per-node Python dicts, tuples and
frozensets -- and only then compile it to CSR arrays.  At n = 10^6 that
intermediate costs gigabytes and minutes before the first round runs.
The builders here skip it entirely: each family exposes an *edge stream*
(an iterator of ``(u, v)`` pairs over dense ids ``0..n-1``) that is
consumed once into flat ``array('q')`` CSR buffers, from which a
:class:`~repro.sim.compiled.CompiledNetwork` is constructed directly via
:meth:`~repro.sim.compiled.CompiledNetwork.from_csr`.  The compiled
network's Network facade then feeds the scheduler on every engine with
no ``Network`` object anywhere.

Equivalence contract (locked by ``tests/graphs/test_streaming.py``):

* :func:`csr_from_edges` reproduces **exactly** the adjacency order of
  ``Network.from_edges(range(n), edges).compile()`` -- each edge appends
  its endpoints to both rows in stream order -- so for any stream the
  streamed CSR is byte-identical to the materialized one;
* the deterministic streams (:func:`ring_edges`, :func:`grid_edges`,
  :func:`tree_edges`) emit edges in the same order as their materialized
  twins (``ring_graph``/``grid_graph``/``binary_tree``), making e.g.
  ``stream_ring(n)`` byte-identical to ``ring_graph(n).compile()``;
* the randomized streams are seeded distributions of their own:
  :func:`gnp_edges` draws G(n, p) with O(n + |E|) geometric edge
  skipping (one draw per *edge*, not per pair) and :func:`regular_edges`
  uses a pairing-model repair loop, so neither replays the per-pair draw
  sequence of ``gnp_graph``/networkx -- they are tested byte-identical
  against ``Network.from_edges`` over the same stream instead.

Streamed topologies are shared with pool workers through
:mod:`repro.sim.shm`: every ``stream_*`` builder first consults the
published-topology table, so a worker whose measure function rebuilds
"the same" graph gets the parent's single shared copy; otherwise it
builds its own.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Iterable, Iterator, Tuple

from ..sim import arrays
from ..sim.compiled import CompiledNetwork, _ID_TYPECODE
from ..sim.errors import NetworkError

Edge = Tuple[int, int]

#: Streams larger than this many edges take the NumPy counting-sort CSR
#: fill when the array backend is on; below it the Python loop wins.
_CSR_NUMPY_MIN_EDGES = 1 << 12


# ----------------------------------------------------------------------
# Edge streams (dense ids, no duplicates, no self-loops)
# ----------------------------------------------------------------------
def ring_edges(n: int) -> Iterator[Edge]:
    """The cycle's edges in ``ring_graph`` order."""
    if n < 3:
        raise NetworkError("a ring needs at least 3 nodes")
    for i in range(n):
        yield (i, (i + 1) % n)


def grid_edges(rows: int, cols: int) -> Iterator[Edge]:
    """The grid's edges in ``grid_graph`` order (right, then down)."""
    for r in range(rows):
        base = r * cols
        for c in range(cols):
            node = base + c
            if c + 1 < cols:
                yield (node, node + 1)
            if r + 1 < rows:
                yield (node, node + cols)


def tree_edges(depth: int) -> Iterator[Edge]:
    """The complete binary tree's edges in ``binary_tree`` order."""
    n = 2 ** (depth + 1) - 1
    for i in range(1, n):
        yield (i, (i - 1) // 2)


def gnp_edges(n: int, p: float, seed: int) -> Iterator[Edge]:
    """G(n, p) edges by geometric skipping -- O(n + |E|) draws.

    Walks the lexicographic sequence of the ``n * (n - 1) / 2`` vertex
    pairs and jumps straight to the next present edge by sampling the
    geometric gap ``floor(log(U) / log(1 - p))``, so the cost is
    proportional to the number of edges rather than the number of pairs.
    A seeded distribution of its own: it does *not* replay
    ``gnp_graph``'s one-uniform-per-pair draws.
    """
    if not 0.0 <= p <= 1.0:
        raise NetworkError("edge probability must lie in [0, 1]")
    if n < 0:
        raise NetworkError("node count must be non-negative")
    total = n * (n - 1) // 2
    if total == 0 or p == 0.0:
        return
    if p == 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                yield (u, v)
        return
    log_skip = math.log(1.0 - p)
    if log_skip == 0.0:
        # 1 - p rounds to 1 (p below ~1.1e-16): every gap is infinite,
        # so the walk passes all pairs before its first edge.
        return
    rng = random.Random(seed)
    # Unrank pair index t -> (u, v) incrementally: row u covers the
    # contiguous block [row_start, row_start + n - u - 1).
    u = 0
    row_start = 0
    t = -1
    while True:
        # 1 - random() lies in (0, 1], keeping the log finite.
        t += 1 + int(math.log(1.0 - rng.random()) / log_skip)
        if t >= total:
            return
        while t >= row_start + (n - u - 1):
            row_start += n - u - 1
            u += 1
        yield (u, u + 1 + (t - row_start))


def regular_edges(n: int, degree: int, seed: int) -> Iterator[Edge]:
    """A random ``degree``-regular simple graph via pairing with repair.

    Shuffles the ``n * degree`` stubs and pairs them consecutively;
    pairs forming self-loops or duplicate edges return to the pool and
    are re-shuffled.  When a pass makes no progress the construction
    restarts from scratch (vanishingly rare for ``degree << n``).  A
    seeded distribution of its own, independent of networkx's sampler.
    """
    if n * degree % 2 != 0:
        raise NetworkError("n * degree must be even")
    if degree >= n:
        raise NetworkError("degree must be smaller than n")
    if degree < 0:
        raise NetworkError("degree must be non-negative")
    if degree == 0:
        return
    rng = random.Random(seed)
    while True:
        edges = _try_pairing(n, degree, rng)
        if edges is not None:
            yield from edges
            return


def _try_pairing(n: int, degree: int, rng: random.Random):
    """One pairing-model attempt; ``None`` when it wedges."""
    edges = []
    seen = set()
    stubs = [node for node in range(n) for _ in range(degree)]
    while stubs:
        rng.shuffle(stubs)
        leftover = []
        progress = False
        for u, v in zip(stubs[0::2], stubs[1::2]):
            key = (u, v) if u < v else (v, u)
            if u == v or key in seen:
                leftover.append(u)
                leftover.append(v)
                continue
            seen.add(key)
            edges.append((u, v))
            progress = True
        if leftover and not progress:
            return None
        stubs = leftover
    return edges


# ----------------------------------------------------------------------
# CSR construction
# ----------------------------------------------------------------------
def csr_from_edges(n: int, edges: Iterable[Edge]):
    """Consume an edge stream into ``(indptr, indices)`` CSR arrays.

    Each edge ``(u, v)`` appends ``v`` to row ``u`` and ``u`` to row
    ``v``, in stream order -- exactly the adjacency order
    ``Network.from_edges`` produces -- so compiling the same stream
    through a materialized :class:`Network` yields byte-identical
    buffers.  The stream must be simple (no duplicates or self-loops);
    bounds and self-loops are checked, duplicates are the stream's
    contract.  ``edges`` is an iterable of pairs or, with the array
    backend on, one int64 ``(m, 2)`` NumPy block holding the stream in
    order.  Takes a NumPy counting-sort path for blocks and large
    streams when the array backend is enabled, and a key sort for a
    block in lexicographic order (:func:`_csr_fill_sorted`); all paths
    are bit-identical.
    """
    np = arrays.get_numpy()
    if np is not None and isinstance(edges, np.ndarray):
        block = _checked_block(np, n, edges)
        if _lexicographic(np, n, block):
            return _csr_fill_sorted(np, n, block)
        return _csr_fill_numpy(np, n, block)
    pairs = array(_ID_TYPECODE)
    append = pairs.append
    for u, v in edges:
        if u == v:
            raise NetworkError("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise NetworkError("edge endpoint out of range")
        append(u)
        append(v)
    if np is not None and len(pairs) >= 2 * _CSR_NUMPY_MIN_EDGES:
        return _csr_fill_numpy(np, n, pairs)
    return _csr_fill_python(n, pairs)


def _checked_block(np, n: int, block):
    """``block`` as a contiguous int64 ``(m, 2)`` array; raises what the
    stream loop would raise at the block's first bad edge."""
    block = np.ascontiguousarray(block, dtype=np.int64).reshape(-1, 2)
    u = block[:, 0]
    v = block[:, 1]
    if not block.size or (block.min() >= 0 and block.max() < n
                          and not (u == v).any()):
        return block
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        k = int(np.argmax(bad))
        if u[k] == v[k]:
            raise NetworkError("self-loops are not allowed")
        raise NetworkError("edge endpoint out of range")
    return block


def _lexicographic(np, n: int, block) -> bool:
    """Whether every pair of the checked ``block`` has ``u < v`` and
    the pairs strictly increase in lexicographic order, as G(n, p)'s
    walk and the grid emit them."""
    u = block[:, 0]
    v = block[:, 1]
    if n > 1 << 31 or not (u < v).all():
        return False
    keys = u << max(n - 1, 1).bit_length()
    keys |= v
    return bool((keys[1:] > keys[:-1]).all())


def _csr_fill_sorted(np, n: int, block):
    """:func:`_csr_fill_numpy`'s bytes for a :func:`_lexicographic` block.

    Row ``x`` of the stable fill lists the ``w < x`` of the edges
    ``(w, x)``, which all come first and by ascending ``w``, then the
    ``y > x`` of the edges ``(x, y)``, ascending: its sorted neighbor
    list.  So one in-place sort of the distinct keys ``src << shift |
    dst``, masked back to ``dst``, is the indices buffer.
    """
    edges = block.shape[0]
    u = block[:, 0]
    v = block[:, 1]
    indptr = array(_ID_TYPECODE, bytes(8 * (n + 1)))
    counts = np.bincount(u, minlength=n)
    counts += np.bincount(v, minlength=n)
    np.cumsum(counts, out=np.frombuffer(indptr, dtype=np.int64)[1:])
    indices = array(_ID_TYPECODE, [0]) * (2 * edges)
    keys = np.frombuffer(indices, dtype=np.int64)
    shift = max(n - 1, 1).bit_length()
    np.left_shift(u, shift, out=keys[:edges])
    keys[:edges] |= v
    np.left_shift(v, shift, out=keys[edges:])
    keys[edges:] |= u
    keys.sort()
    keys &= (1 << shift) - 1
    return indptr, indices


def _csr_fill_python(n: int, pairs: array):
    counts = array(_ID_TYPECODE, bytes(8 * n)) if n else array(_ID_TYPECODE)
    for node in pairs:
        counts[node] += 1
    indptr = array(_ID_TYPECODE, bytes(8 * (n + 1)))
    total = 0
    for i in range(n):
        indptr[i] = total
        total += counts[i]
    indptr[n] = total
    cursor = list(indptr[:n])
    indices = array(_ID_TYPECODE, bytes(8 * len(pairs)))
    for k in range(0, len(pairs), 2):
        u = pairs[k]
        v = pairs[k + 1]
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    return indptr, indices


def _csr_fill_numpy(np, n: int, pairs):
    """CSR from the flat int64 endpoints ``u0, v0, u1, v1, ...`` (any
    contiguous int64 buffer, or a checked ``(m, 2)`` block)."""
    # Directed incidence in stream order: (u -> v, v -> u) per edge.
    src = np.frombuffer(pairs, dtype=np.int64)
    dst = src.reshape(-1, 2)[:, ::-1].reshape(-1)
    counts = np.bincount(src, minlength=n)
    indptr_np = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr_np[1:])
    # Stable sort by source keeps stream order within each row -- the
    # same insertion order Network.from_edges produces.
    order = np.argsort(src, kind="stable")
    indices_np = dst[order]
    indptr = array(_ID_TYPECODE)
    indptr.frombytes(indptr_np.tobytes())
    indices = array(_ID_TYPECODE)
    indices.frombytes(indices_np.tobytes())
    return indptr, indices


# ----------------------------------------------------------------------
# Streamed topologies (CompiledNetwork, no Network anywhere)
# ----------------------------------------------------------------------
def _stream_compiled(key, n: int, factory, fill=None) -> CompiledNetwork:
    from ..sim import shm
    from ..substrates.cache import record_lookup

    shared = shm.lookup(key)
    # "topologies" counts shared-memory resolution (the daemon's warm
    # topology table).
    record_lookup("topologies", shared is not None)
    if shared is not None:
        return shared
    # A deterministic family fills its CSR on NumPy (from one edge block
    # in stream order, or in closed form) when the backend is on;
    # otherwise its edge stream is consumed pair by pair.
    np = arrays.get_numpy()
    if fill is not None and np is not None:
        indptr, indices = fill(np)
    else:
        indptr, indices = csr_from_edges(n, factory())
    return CompiledNetwork.from_csr(indptr, indices)


def _ring_csr(np, n: int):
    """:func:`ring_edges`' CSR in closed form: ``indptr[i] = 2 i`` and
    row ``i`` is ``[i - 1, i + 1]``, except row 0, ``[1, n - 1]``, and
    row ``n - 1``, ``[n - 2, 0]``.  That is the stable fill's order:
    edge ``(i - 1, i)`` precedes edge ``(i, i + 1)``, and the closing
    edge ``(n - 1, 0)`` comes last."""
    if n < 3:
        raise NetworkError("a ring needs at least 3 nodes")
    indptr = array(_ID_TYPECODE, [0]) * (n + 1)
    np.frombuffer(indptr, dtype=np.int64)[:] = np.arange(
        0, 2 * n + 1, 2, dtype=np.int64)
    indices = array(_ID_TYPECODE, [0]) * (2 * n)
    rows = np.frombuffer(indices, dtype=np.int64).reshape(n, 2)
    ids = np.arange(-1, n + 1, dtype=np.int64)
    rows[:, 0] = ids[:n]
    rows[:, 1] = ids[2:]
    rows[0] = (1, n - 1)
    rows[n - 1, 1] = 0
    return indptr, indices


def _grid_block(np, rows: int, cols: int):
    """:func:`grid_edges` as one int64 ``(m, 2)`` block, same order."""
    node = np.arange(max(rows, 0) * max(cols, 0), dtype=np.int64)
    pairs = np.empty((node.shape[0], 2, 2), dtype=np.int64)
    pairs[:, :, 0] = node[:, None]
    pairs[:, 0, 1] = node + 1
    pairs[:, 1, 1] = node + cols
    # Per node: its right edge, then its down edge, when present.
    present = np.stack([node % cols + 1 < cols, node // cols + 1 < rows],
                       axis=1)
    return pairs[present]


def _tree_block(np, depth: int):
    """:func:`tree_edges` as one int64 ``(n - 1, 2)`` block."""
    child = np.arange(1, 2 ** (depth + 1) - 1, dtype=np.int64)
    return np.stack([child, (child - 1) // 2], axis=1)


def _gnp_chunk(expected: float) -> int:
    """Draws per chunk of :func:`_gnp_block`: the expected edge count
    plus four standard deviations, so one chunk almost always ends the
    walk and small graphs draw little more than they use."""
    return int(expected + 4.0 * math.sqrt(expected)) + 16


#: Relative half-width of the bracket :func:`_gnp_gaps` puts around each
#: gap quotient: 2**12 ulps, far beyond the ulp or two by which
#: ``np.log`` and ``math.log`` differ.
_GAP_SLACK = 2.0 ** -40


def _bulk_log(np, values):
    """``np.log(values)``, which may differ from ``math.log`` by an ulp;
    :func:`_gnp_gaps` repairs every gap that difference could move."""
    return np.log(values)


def _gnp_gaps(np, rng: random.Random, count: int, log_skip: float,
              total: int):
    """The next ``count`` gaps of :func:`gnp_edges`'s walk,
    ``int(math.log(1.0 - rng.random()) / log_skip)`` clipped at
    ``total``, as int64.

    The uniforms are replayed exactly from bulk words, and ``1 - u`` is
    exact for ``u`` on the 2**-53 grid, so only the log can differ from
    the stream's.  Each quotient is bracketed by :data:`_GAP_SLACK`; where
    the clipped floors of the bracket's ends differ (the quotient lies
    within a few ulps of an integer, ``total`` included), the quotient is
    recomputed with ``math.log`` itself.
    """
    rest = arrays.mt_doubles(np, rng, count)
    np.subtract(1.0, rest, out=rest)
    quotient = _bulk_log(np, rest)
    quotient /= log_skip
    bound = float(total)
    low = quotient * (1.0 - _GAP_SLACK)
    np.minimum(low, bound, out=low)
    gaps = low.astype(np.int64)
    quotient *= 1.0 + _GAP_SLACK
    np.minimum(quotient, bound, out=quotient)
    log = math.log
    for i in np.flatnonzero(quotient.astype(np.int64) != gaps).tolist():
        gaps[i] = int(min(log(rest[i]) / log_skip, bound))
    return gaps


def _gnp_block(np, n: int, p: float, seed: int):
    """:func:`gnp_edges` as one int64 ``(m, 2)`` block, same order.

    The same draws from the same seeded ``random.Random``
    (:func:`_gnp_gaps`), taken in chunks sized from the expected edge
    count (draws past the last edge are discarded; the generator is
    local).  Each gap is clipped at the pair count, which ends the walk
    exactly where the stream's ``t >= total`` does and keeps tiny-``p``
    gaps inside int64.  The pair index is sorted, so the rows are
    unranked by searching the ``n`` row starts in it.
    """
    if n < 0:
        raise NetworkError("node count must be non-negative")
    total = n * (n - 1) // 2
    if total == 0 or p == 0.0:
        return np.empty((0, 2), dtype=np.int64)
    if p == 1.0:
        return np.stack(np.triu_indices(n, 1), axis=1).astype(np.int64)
    log_skip = math.log(1.0 - p)
    if log_skip == 0.0:  # edgeless, as the stream
        return np.empty((0, 2), dtype=np.int64)
    rng = random.Random(seed)
    chunk = _gnp_chunk(p * total)
    t = -1
    found = []
    while True:
        steps = _gnp_gaps(np, rng, chunk, log_skip, total)
        steps += 1
        np.cumsum(steps, out=steps)
        steps += t
        past = np.flatnonzero(steps >= total)
        if past.size:
            found.append(steps[:past[0]])
            break
        found.append(steps)
        t = int(steps[-1])
    return _unrank_pairs(np, n, found[0] if len(found) == 1
                         else np.concatenate(found))


def _unrank_pairs(np, n: int, index):
    """The int64 ``(m, 2)`` block of the pairs ``u < v`` at the sorted
    ``index`` positions of the lexicographic sequence of all
    ``n * (n - 1) / 2`` pairs.  The rows are unranked by searching the
    ``n`` row starts in ``index``."""
    # Row u holds the pairs [row_start[u], row_start[u] + n - u - 1), so
    # pair t sits in column t - (row_start[u] - u - 1).
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=row_start[1:])
    counts = np.diff(np.searchsorted(index, row_start), append=len(index))
    block = np.empty((len(index), 2), dtype=np.int64)
    block[:, 0] = np.repeat(np.arange(n, dtype=np.int64), counts)
    np.subtract(index, np.repeat(row_start - np.arange(1, n + 1), counts),
                out=block[:, 1])
    return block


#: Pair draws per chunk of :func:`gnp_compiled` (8 MiB of float64), so
#: its memory does not grow with the ``n * (n - 1) / 2`` pairs.
_GNP_PAIR_CHUNK = 1 << 20


def gnp_compiled(n: int, p: float, seed: int) -> CompiledNetwork:
    """``gnp_graph(n, p, seed).compile()``'s CSR, without the Network.

    ``gnp_graph`` draws one ``rng.random()`` per pair, in lexicographic
    order, and keeps the pairs drawn below ``p``.  With the array
    backend on, those draws are replayed exactly from bulk Mersenne
    Twister words (:func:`repro.sim.arrays.mt_doubles`), a chunk at a
    time, and the kept pairs are unranked into one lexicographic edge
    block; otherwise this is ``gnp_graph(n, p, seed).compile()``.
    """
    np = arrays.get_numpy()
    if np is None:
        from .generators import gnp_graph

        return gnp_graph(n, p, seed).compile()
    if not 0.0 <= p <= 1.0:
        raise NetworkError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    kept = [
        np.flatnonzero(arrays.mt_doubles(np, rng, hi - lo) < p) + lo
        for lo, hi in arrays.iter_chunks(n * (n - 1) // 2, _GNP_PAIR_CHUNK)
    ]
    index = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    return CompiledNetwork.from_csr(
        *csr_from_edges(n, _unrank_pairs(np, n, index)))


def stream_ring(n: int) -> CompiledNetwork:
    """The cycle on ``n`` nodes, streamed straight to CSR."""
    return _stream_compiled(("ring-stream", n), n,
                            lambda: ring_edges(n),
                            lambda np: _ring_csr(np, n))


def stream_grid(rows: int, cols: int) -> CompiledNetwork:
    """The rows x cols grid, streamed straight to CSR."""
    return _stream_compiled(("grid-stream", rows, cols), rows * cols,
                            lambda: grid_edges(rows, cols),
                            lambda np: csr_from_edges(
                                rows * cols, _grid_block(np, rows, cols)))


def stream_tree(depth: int) -> CompiledNetwork:
    """The complete binary tree, streamed straight to CSR."""
    n = 2 ** (depth + 1) - 1
    return _stream_compiled(("tree-stream", depth), n,
                            lambda: tree_edges(depth),
                            lambda np: csr_from_edges(
                                n, _tree_block(np, depth)))


def stream_gnp(n: int, p: float, seed: int) -> CompiledNetwork:
    """G(n, p) via geometric skipping, streamed straight to CSR."""
    if not 0.0 <= p <= 1.0:
        raise NetworkError("edge probability must lie in [0, 1]")
    return _stream_compiled(("gnp-stream", n, p, seed), n,
                            lambda: gnp_edges(n, p, seed),
                            lambda np: csr_from_edges(
                                n, _gnp_block(np, n, p, seed)))


def stream_regular(n: int, degree: int, seed: int) -> CompiledNetwork:
    """A random regular graph (pairing model), streamed straight to CSR."""
    if n * degree % 2 != 0:
        raise NetworkError("n * degree must be even")
    if degree >= n:
        raise NetworkError("degree must be smaller than n")
    return _stream_compiled(("regular-stream", n, degree, seed), n,
                            lambda: regular_edges(n, degree, seed))


# ----------------------------------------------------------------------
# Seed colorings for scale workloads
# ----------------------------------------------------------------------
#: Mean degree (``2m / n``) up to which the greedy seed takes the
#: frontier form (:func:`_greedy_seed_numpy`).  Sparse and chain-heavy
#: inputs (rings, grids, trees, G(n, p) up to mean degree 8) resolve in
#: few wide frontiers; above that the frontiers thin out and the plain
#: loop wins.
_SEED_FRONTIER_MAX_MEAN_DEGREE = 8

#: Mean degree up to which the greedy seed keeps the plain loop
#: (:func:`_greedy_seed_loop`) above the frontier range; denser inputs
#: take the row form (:func:`_greedy_seed_rows`), one NumPy mex per
#: node.  Best of 9, interleaved, 2-core Xeon, ms (loop / frontier /
#: rows):
#:
#: ============  ====================  ====================
#: mean degree   G(5000, p)            G(10000, p)
#: ============  ====================  ====================
#: 4             4.9 / 2.8 / 20.1      12.1 / 5.7 / 41.6
#: 8             9.1 / 7.2 / 21.1      17.9 / 12.6 / 42.0
#: 16            8.7 / 11.5 / 18.3     23.1 / 23.3 / 38.1
#: 24            12.1 / 16.6 / 18.4    22.8 / 29.2 / 31.2
#: 32            18.3 / 27.2 / 21.9    36.9 / 48.1 / 44.4
#: ============  ====================  ====================
#:
#: The loop and the row form cross at mean degree 32-40 (G(10000, p):
#: 40.1 / 42.4 ms at 32, 41.5 / 40.9 at 40, 44.5 / 26.1 at 64).
_SEED_NUMPY_MAX_MEAN_DEGREE = 32


def greedy_seed_coloring(compiled: CompiledNetwork):
    """Sequential greedy coloring over dense ids -- O(n + m), <= Delta+1.

    The scale workloads need a proper input coloring without touching
    node objects or dicts; scanning nodes in dense order and taking the
    smallest color unused by lower-id neighbors (first fit) gives one
    with at most ``max_degree + 1`` classes.  Three exact forms compute
    the same colors:

    * the frontier form (:func:`_greedy_seed_numpy`) when the array
      backend is on, ``n >= arrays.MIN_BATCH`` and the mean degree is at
      most :data:`_SEED_FRONTIER_MAX_MEAN_DEGREE`;
    * the row form (:func:`_greedy_seed_rows`) under the same conditions
      but a mean degree above :data:`_SEED_NUMPY_MAX_MEAN_DEGREE`;
    * the plain loop (:func:`_greedy_seed_loop`) in between, without
      NumPy, or below ``arrays.MIN_BATCH`` nodes.

    Returns the dense-id column: an int64 ndarray from either NumPy
    form, an ``array('q')`` from the loop.
    """
    np = arrays.get_numpy()
    n = compiled.n
    if np is None or n < arrays.MIN_BATCH:
        return _greedy_seed_loop(compiled)
    entries = compiled.indptr[n]
    if entries <= _SEED_FRONTIER_MAX_MEAN_DEGREE * n:
        return _greedy_seed_numpy(np, compiled)
    if entries <= _SEED_NUMPY_MAX_MEAN_DEGREE * n:
        return _greedy_seed_loop(compiled)
    return _greedy_seed_rows(np, compiled)


def _greedy_seed_loop(compiled: CompiledNetwork) -> array:
    """First fit by dense id, one node at a time."""
    indptr = compiled.indptr
    indices = compiled.indices
    n = compiled.n
    colors = array(_ID_TYPECODE, bytes(8 * n)) if n else array(_ID_TYPECODE)
    for i in range(n):
        used = {
            colors[j]
            for j in indices[indptr[i]:indptr[i + 1]]
            if j < i
        }
        color = 0
        while color in used:
            color += 1
        colors[i] = color
    return colors


def _greedy_seed_rows(np, compiled: CompiledNetwork):
    """:func:`_greedy_seed_loop`'s colors, each node's mex on NumPy.

    Still one node at a time in dense-id order, but a node's mex is a
    few array operations over its whole CSR row
    (:func:`~repro.sim.arrays.first_fit_rows`).  ``colors`` starts at
    ``n``, above any color, so the not yet colored (higher-id) neighbors
    need no mask and rows need not be sorted.  Extra memory is
    O(n + Delta): no per-row table.
    """
    n = compiled.n
    colors = np.full(n, n, dtype=np.int64)
    arrays.first_fit_rows(np, compiled.indptr, compiled.numpy_views()[1],
                          colors, range(n), colors,
                          np.empty(compiled.max_degree() + 1, dtype=bool))
    return colors


def _gather_rows(np, indptr, values, rows):
    """``values[indptr[r]:indptr[r + 1]]`` for each of ``rows``, joined,
    and each element's position in ``rows``."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.shape[0]), lengths)
    offsets = np.cumsum(lengths) - lengths
    positions = np.arange(owner.shape[0]) + (starts - offsets)[owner]
    return values[positions], owner


def _greedy_seed_numpy(np, compiled: CompiledNetwork):
    """:func:`_greedy_seed_loop`'s colors, computed array-at-a-time.

    A node's first-fit color depends only on its lower-id neighbors:

    * none: color 0;
    * exactly one (its *parent*): color ``[parent color == 0]``.  Chains
      of such nodes are collapsed: each finds its chain root (the first
      ancestor without exactly one lower neighbor) and the parity of its
      distance to it.  At odd distance the color is ``[root color ==
      0]``, at even distance ``[root color != 0]``.  A chain node whose
      parent is ``i - 1`` first jumps to the head of its run of such
      nodes (the last id at or below it that is not one: a running
      maximum) at distance ``i - head``; pointer jumping then runs over
      the contracted links, so a ring or a path in id order needs no
      jump at all;
    * two or more: the mex of their colors.  These nodes wait on the
      chain roots of their lower neighbors and are resolved frontier by
      frontier in topological order (Kahn's algorithm), each frontier's
      mex from one presence table.

    Ids are int32 below 2**31 nodes, which halves the transients.
    """
    indptr, indices, degrees = compiled.numpy_views()
    n = compiled.n
    ids = np.arange(n, dtype=np.int32 if n < 1 << 31 else np.int64)
    source = np.repeat(ids, degrees)
    # One index list and two takes: faster than two boolean masks.
    low = np.flatnonzero(indices < source)
    low_src = source[low]
    del source
    low_nbr = indices[low].astype(ids.dtype)
    del low
    counts = np.bincount(low_src, minlength=n)
    low_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=low_ptr[1:])

    chain = counts == 1
    linked = chain[low_src]
    root = ids.copy()
    root[low_src[linked]] = low_nbr[linked]
    del linked
    # Run contraction: ``root`` is the parent, so a run node has
    # ``root == i - 1``; its head is the running maximum of the others.
    run = root == ids - 1
    head = np.where(run, 0, ids)
    np.maximum.accumulate(head, out=head)
    odd = chain.copy()
    odd[run] = ((ids - head) & 1)[run]
    root[run] = head[run]
    del head, run
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        odd ^= odd[root]
        root = jumped
    del jumped

    colors = np.zeros(n, dtype=np.int64)
    # Dependency DAG over the non-chain nodes: each low entry of a
    # multi-parent node waits for its neighbor's chain root (lower id).
    waits = counts[low_src] >= 2
    waiter = low_src[waits]
    dependency = root[low_nbr[waits]]
    by_dependency = np.argsort(dependency, kind="stable")
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dependency, minlength=n), out=out_ptr[1:])
    out_dst = waiter[by_dependency]
    pending = counts.copy()
    frontier = np.flatnonzero(counts == 0)
    while True:
        released = _gather_rows(np, out_ptr, out_dst, frontier)[0]
        released, times = np.unique(released, return_counts=True)
        pending[released] -= times
        frontier = released[pending[released] == 0]
        if not frontier.shape[0]:
            break
        width = int(counts[frontier].max()) + 1
        for lo, hi in arrays.iter_chunks(
                frontier.shape[0], max(1, arrays.MAX_MATCH_ELEMENTS // width)):
            rows = frontier[lo:hi]
            neighbor, owner = _gather_rows(np, low_ptr, low_nbr, rows)
            base = colors[root[neighbor]]
            value = np.where(chain[neighbor], (base == 0) == odd[neighbor],
                             base)
            # A mex is at most the row's lower-neighbor count < width.
            seen = np.zeros((rows.shape[0], width + 1), dtype=bool)
            seen[owner, np.minimum(value, width)] = True
            colors[rows] = seen[:, :width].argmin(axis=1)
    base = colors[root]
    return np.where(chain, (base == 0) == odd, base)


def inflated_seed_coloring(compiled: CompiledNetwork, q: int):
    """A proper q-coloring for scale runs: greedy classes blown up.

    Spreads the greedy seed classes over ``q`` colors by an interleaved
    blow-up (``color * factor + id mod factor``), preserving
    properness: adjacent nodes differ in the greedy class, hence in the
    inflated color.  Returns ``(column, q_used)``: ``column`` holds the
    colors in dense-id order (``compiled.order``) -- an int64 ndarray
    when the array backend is on, a list of ints otherwise -- and
    ``q_used = classes * factor <= q`` is the actual palette bound;
    requires ``q`` at least the number of greedy classes.
    """
    seed = greedy_seed_coloring(compiled)
    n = compiled.n
    np = arrays.get_numpy()
    if np is not None:
        seed = np.frombuffer(seed, dtype=np.int64) \
            if isinstance(seed, array) else seed
        classes = int(seed.max()) + 1 if n else 1
    else:
        classes = max(seed) + 1 if n else 1
    if q < classes:
        raise NetworkError(
            f"palette q={q} smaller than the {classes} greedy classes"
        )
    factor = q // classes
    if np is not None and q <= arrays.MAX_COLOR:
        column = seed * factor + np.arange(n, dtype=np.int64) % factor
    else:
        column = [int(color) * factor + i % factor
                  for i, color in enumerate(seed)]
    return column, classes * factor


__all__ = [
    "csr_from_edges",
    "gnp_edges",
    "greedy_seed_coloring",
    "grid_edges",
    "inflated_seed_coloring",
    "regular_edges",
    "ring_edges",
    "stream_gnp",
    "stream_grid",
    "stream_regular",
    "stream_ring",
    "stream_tree",
    "tree_edges",
]
