"""Seeded differential tests: the NumPy greedy seeds and edge blocks.

``_greedy_seed_numpy`` (chain collapse by run contraction and pointer
jumping, plus Kahn frontiers) and ``_greedy_seed_rows`` (one NumPy mex
per node) must equal the first-fit loop they replace, node for node, on
every family; the NumPy edge blocks of the deterministic families, and
the ring's closed form, must fill the same CSR bytes as their edge
streams.  Draws come from stdlib ``random`` with fixed seeds.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.graphs import streaming
from repro.graphs.streaming import (
    csr_from_edges,
    grid_edges,
    inflated_seed_coloring,
    ring_edges,
    stream_gnp,
    stream_grid,
    stream_regular,
    stream_ring,
    stream_tree,
    tree_edges,
)
from repro.sim import arrays
from repro.sim.compiled import CompiledNetwork
from repro.sim.errors import NetworkError
from repro.sim.network import Network

np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _numpy_backend():
    """These tests compare the NumPy forms with the loops, so the array
    backend is on whatever ``REPRO_SIM_ARRAYS`` says."""
    previous = arrays.set_arrays_override(True)
    yield
    arrays.set_arrays_override(previous)


def _edges_graph(rng: random.Random) -> CompiledNetwork:
    """A random simple graph on ``n`` nodes, some of them isolated."""
    n = rng.randint(1, 120)
    pairs = set()
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = sorted(pairs)
    rng.shuffle(edges)
    return CompiledNetwork.from_csr(*csr_from_edges(
        n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]))


def _draw(rng: random.Random) -> CompiledNetwork:
    family = rng.choice(["ring-odd", "ring-even", "grid", "tree", "gnp",
                         "gnp-dense", "regular", "edges"])
    if family == "ring-odd":
        return stream_ring(rng.choice([3, 5, 7, 2 * rng.randint(2, 300) + 1]))
    if family == "ring-even":
        return stream_ring(rng.choice([4, 6, 2 * rng.randint(2, 300)]))
    if family == "grid":
        return stream_grid(rng.randint(1, 30), rng.randint(1, 30))
    if family == "tree":
        return stream_tree(rng.randint(0, 9))
    if family == "gnp":
        n = rng.randint(2, 400)
        return stream_gnp(n, rng.uniform(0.0, 4.0 / n), rng.randrange(10**6))
    if family == "gnp-dense":
        return stream_gnp(rng.randint(2, 120), rng.uniform(0.2, 1.0),
                          rng.randrange(10**6))
    if family == "regular":
        n = 2 * rng.randint(3, 100)
        return stream_regular(n, rng.randint(1, 5), rng.randrange(10**6))
    return _edges_graph(rng)


def _from_pairs(n, pairs) -> CompiledNetwork:
    return CompiledNetwork.from_csr(*csr_from_edges(n, pairs))


def _chain_cases():
    """Graphs that exercise the run contraction of the chain roots, by
    name; each value builds its graph."""
    rng = random.Random(77)
    n = 500
    path = [(i, i + 1) for i in range(n - 1)]
    perm = list(range(n))
    rng.shuffle(perm)
    # Runs of parent i - 1 cut by nodes with two lower neighbors.
    broken = path + [(j - 3, j) for j in range(5, n, 7)]
    # A run whose head is itself a chain node with a far parent.
    far_head = [(i, i + 1) for i in range(10)] + [(3, 20)] + \
        [(i, i + 1) for i in range(20, 40)]
    return {
        "ring-odd": lambda: stream_ring(1001),
        "ring-even": lambda: stream_ring(1000),
        "path-up": lambda: _from_pairs(n, path),
        "path-down": lambda: _from_pairs(
            n, [(v, u) for u, v in reversed(path)]),
        "path-stride-2": lambda: _from_pairs(
            n, [(i, i + 2) for i in range(0, n - 2, 2)]
            + [(i, i + 2) for i in range(1, n - 2, 2)]),
        "path-shuffled": lambda: _from_pairs(
            n, [(perm[i], perm[i + 1]) for i in range(n - 1)]),
        "runs-broken": lambda: _from_pairs(n, broken),
        "runs-broken-reversed": lambda: _from_pairs(n, broken[::-1]),
        "far-head": lambda: _from_pairs(41, far_head),
        "paths-disjoint": lambda: _from_pairs(
            n, [(i, i + 1) for i in range(n - 1) if i % 50 != 49]),
        "tree": lambda: stream_tree(9),
        "grid": lambda: stream_grid(31, 29),
        "gnp": lambda: stream_gnp(3000, 3.0 / 3000, 5),
    }


_CHAIN_CASES = _chain_cases()


@pytest.mark.parametrize("name", sorted(_CHAIN_CASES))
def test_numpy_seed_run_contraction(name):
    compiled = _CHAIN_CASES[name]()
    want = list(streaming._greedy_seed_loop(compiled))
    got = streaming._greedy_seed_numpy(np, compiled)
    assert got.dtype == np.int64
    assert got.tolist() == want


@pytest.mark.parametrize("seed", range(6))
def test_numpy_seed_matches_loop(seed):
    rng = random.Random(4100 + seed)
    for case in range(40):
        compiled = _draw(rng)
        want = list(streaming._greedy_seed_loop(compiled))
        got = streaming._greedy_seed_numpy(np, compiled)
        assert got.dtype == np.int64
        assert got.tolist() == want, (seed, case, compiled.n, compiled.m)


def _dense_gnp(rng: random.Random, n: int) -> CompiledNetwork:
    """G(n, p) with mean degree drawn from 33-800 (capped at n - 1)."""
    mean = rng.uniform(33.0, max(33.0, min(800.0, n - 1.0)))
    return stream_gnp(n, min(1.0, mean / (n - 1)), rng.randrange(10**6))


def _random_pairs(rng: random.Random, n: int, density: float):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < density]


def _shuffled_network(rng: random.Random) -> CompiledNetwork:
    """A dense ``Network`` compiled with shuffled node and neighbor
    insertion order, so CSR rows are not sorted by dense id."""
    n = rng.randint(40, 160)
    labels = [f"v{k}" for k in range(n)]
    rng.shuffle(labels)
    adjacency = {label: [] for label in labels}
    for u, v in _random_pairs(rng, n, rng.uniform(0.3, 0.9)):
        adjacency[labels[u]].append(labels[v])
        adjacency[labels[v]].append(labels[u])
    for neighbors in adjacency.values():
        rng.shuffle(neighbors)
    return Network(adjacency).compile()


def _with_isolated(rng: random.Random) -> CompiledNetwork:
    """A dense core with isolated nodes scattered over the id range, on
    int64 ndarray CSR buffers."""
    core = rng.randint(40, 120)
    n = core + rng.randint(1, 40)
    ids = sorted(rng.sample(range(n), core))
    edges = [(ids[u], ids[v])
             for u, v in _random_pairs(rng, core, rng.uniform(0.5, 1.0))]
    rng.shuffle(edges)
    indptr, indices = csr_from_edges(n, edges)
    return CompiledNetwork.from_csr(np.asarray(indptr), np.asarray(indices))


def _hub_clique(rng: random.Random, n: int, clique: int) -> CompiledNetwork:
    """A star hub joined to every node plus a dense clique: one row of
    length n - 1 next to short ones (skewed Delta)."""
    hub = rng.randrange(n)
    others = [v for v in range(n) if v != hub]
    members = rng.sample(others, clique)
    edges = [(hub, v) for v in others]
    edges += [(members[a], members[b]) for a in range(clique)
              for b in range(a + 1, clique)]
    rng.shuffle(edges)
    return CompiledNetwork.from_csr(*csr_from_edges(n, edges))


def _draw_dense(rng: random.Random) -> CompiledNetwork:
    family = rng.choice(["gnp", "network", "isolated", "hub", "min-batch"])
    if family == "gnp":
        return _dense_gnp(rng, rng.randint(40, 900))
    if family == "network":
        return _shuffled_network(rng)
    if family == "isolated":
        return _with_isolated(rng)
    if family == "hub":
        n = rng.randint(40, 400)
        return _hub_clique(rng, n, rng.randint(2, min(n - 1, 60)))
    return stream_gnp(arrays.MIN_BATCH + rng.choice([-1, 0, 1]),
                      rng.uniform(0.5, 1.0), rng.randrange(10**6))


@pytest.mark.parametrize("seed", range(6))
def test_rows_seed_matches_loop(seed):
    rng = random.Random(5200 + seed)
    for case in range(25):
        compiled = _draw_dense(rng)
        want = list(streaming._greedy_seed_loop(compiled))
        got = streaming._greedy_seed_rows(np, compiled)
        assert got.dtype == np.int64
        assert got.tolist() == want, (seed, case, compiled.n, compiled.m)


def test_rows_seed_memory_is_linear_on_a_hub():
    """A hub of degree n - 1 must not cost an n x Delta table: the row
    form's peak allocation stays within a small multiple of n + Delta."""
    n = 20000
    compiled = _hub_clique(random.Random(7), n, 80)
    want = list(streaming._greedy_seed_loop(compiled))
    tracemalloc.start()
    try:
        got = streaming._greedy_seed_rows(np, compiled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want
    assert peak < 64 * (n + compiled.max_degree())


def test_seed_path_follows_mean_degree(monkeypatch):
    taken = []
    for form in ("_greedy_seed_loop", "_greedy_seed_numpy",
                 "_greedy_seed_rows"):
        def spy(*args, _form=form, _run=getattr(streaming, form)):
            taken.append(_form)
            return _run(*args)
        monkeypatch.setattr(streaming, form, spy)
    sparse = stream_gnp(400, 3.0 / 400, 1)
    dense = stream_gnp(200, 0.5, 1)
    assert isinstance(streaming.greedy_seed_coloring(sparse), np.ndarray)
    assert isinstance(streaming.greedy_seed_coloring(dense), np.ndarray)
    assert taken == ["_greedy_seed_numpy", "_greedy_seed_rows"]
    previous = arrays.set_arrays_override(False)
    try:
        assert not isinstance(streaming.greedy_seed_coloring(sparse),
                              np.ndarray)
        assert not isinstance(streaming.greedy_seed_coloring(dense),
                              np.ndarray)
    finally:
        arrays.set_arrays_override(previous)
    assert taken[2:] == ["_greedy_seed_loop", "_greedy_seed_loop"]


@pytest.mark.parametrize("degree, at, above", [
    (streaming._SEED_FRONTIER_MAX_MEAN_DEGREE, "_greedy_seed_numpy",
     "_greedy_seed_loop"),
    (streaming._SEED_NUMPY_MAX_MEAN_DEGREE, "_greedy_seed_loop",
     "_greedy_seed_rows"),
], ids=["frontier-loop", "loop-rows"])
@pytest.mark.parametrize("seed", range(3))
def test_seed_forms_agree_across_each_boundary(degree, at, above, seed,
                                               monkeypatch):
    """A ``degree``-regular graph sits exactly on a mean-degree boundary,
    the same graph plus one edge just above it: all three forms give
    the same bytes on both sides, and the dispatcher takes the form
    each side names."""
    rng = random.Random(seed)
    n = rng.choice([64, 150, 300])
    edges = list(streaming.regular_edges(n, degree, seed))
    present = {frozenset(edge) for edge in edges}
    extra = rng.choice([(u, v) for u in range(n) for v in range(u + 1, n)
                        if frozenset((u, v)) not in present])
    taken = []
    forms = ("_greedy_seed_loop", "_greedy_seed_numpy", "_greedy_seed_rows")
    runs = {form: getattr(streaming, form) for form in forms}
    for form in forms:
        monkeypatch.setattr(streaming, form,
                            lambda *args, _form=form: taken.append(_form)
                            or runs[_form](*args))
    for stream, form in ((edges, at), (edges + [extra], above)):
        compiled = CompiledNetwork.from_csr(*csr_from_edges(n, stream))
        want = runs["_greedy_seed_loop"](compiled).tobytes()
        for run in (runs["_greedy_seed_numpy"], runs["_greedy_seed_rows"]):
            got = run(np, compiled)
            assert got.dtype == np.int64
            assert got.tobytes() == want
        del taken[:]
        assert streaming.greedy_seed_coloring(compiled).tobytes() == want
        assert taken == [form]


@pytest.mark.parametrize("enabled", [True, False])
def test_inflated_column_on_both_backends(enabled):
    compiled = stream_grid(12, 17)
    previous = arrays.set_arrays_override(enabled)
    try:
        column, q_used = inflated_seed_coloring(compiled, 30)
    finally:
        arrays.set_arrays_override(previous)
    seed = list(streaming._greedy_seed_loop(compiled))
    factor = 30 // (max(seed) + 1)
    assert q_used == (max(seed) + 1) * factor
    assert [int(c) for c in column] == [
        color * factor + i % factor for i, color in enumerate(seed)
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 1000, 9000, 20001])
def test_ring_csr_matches_edge_stream(n):
    want = [a.tobytes() for a in csr_from_edges(n, ring_edges(n))]
    assert [a.tobytes() for a in streaming._ring_csr(np, n)] == want
    compiled = stream_ring(n)
    assert [bytes(memoryview(compiled.indptr)),
            bytes(memoryview(compiled.indices))] == want


@pytest.mark.parametrize("stream, block, n", [
    (lambda: grid_edges(1, 7), lambda: streaming._grid_block(np, 1, 7), 7),
    (lambda: grid_edges(7, 1), lambda: streaming._grid_block(np, 7, 1), 7),
    (lambda: grid_edges(63, 65), lambda: streaming._grid_block(np, 63, 65),
     63 * 65),
    (lambda: tree_edges(0), lambda: streaming._tree_block(np, 0), 1),
    (lambda: tree_edges(12), lambda: streaming._tree_block(np, 12),
     2 ** 13 - 1),
], ids=["grid1x7", "grid7x1", "grid63x65", "tree0", "tree12"])
def test_edge_block_fills_stream_bytes(stream, block, n):
    want = csr_from_edges(n, stream())
    got = csr_from_edges(n, block())
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_ring_csr_rejects_tiny_ring():
    with pytest.raises(NetworkError, match="at least 3"):
        streaming._ring_csr(np, 2)
    with pytest.raises(NetworkError, match="at least 3"):
        stream_ring(2)


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (2, 2), (0, 9)], "self-loops"),
    ([(0, 1), (0, 9), (2, 2)], "out of range"),
    ([(-1, 0)], "out of range"),
])
def test_block_checks_match_stream_checks(pairs, message):
    for edges in (iter(pairs), np.array(pairs, dtype=np.int64)):
        with pytest.raises(NetworkError, match=message):
            csr_from_edges(3, edges)
